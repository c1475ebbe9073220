package leakcheck

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// blockedWorker parks on a channel until it is closed.
func blockedWorker(stop <-chan struct{}) { <-stop }

// TestBlockedGoroutineReported: a goroutine parked on a channel nobody
// closes outlives the settle window and is reported with its stack.
func TestBlockedGoroutineReported(t *testing.T) {
	before := Take()
	stop := make(chan struct{})
	defer close(stop)
	go blockedWorker(stop)
	err := before.Leaked()
	if err == nil {
		t.Fatal("a goroutine blocked on an unclosed channel was not reported")
	}
	if !strings.Contains(err.Error(), "leakcheck.blockedWorker") {
		t.Errorf("report does not quote the leaked stack:\n%v", err)
	}
}

// TestJoinedGoroutinesPass: workers joined by a WaitGroup, a producer
// that closes its channel and a worker told to stop by a close are all
// gone when the caller returns.
func TestJoinedGoroutinesPass(t *testing.T) {
	before := Take()

	// The parallel-instance shape: workers claim tasks off a shared
	// cursor until it runs dry, joined by a WaitGroup.
	var wg sync.WaitGroup
	var next atomic.Int64
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) < 100 {
			}
		}()
	}
	wg.Wait()

	out := make(chan int)
	go func() {
		defer close(out)
		out <- 1
	}()
	for range out {
	}

	stop := make(chan struct{})
	go blockedWorker(stop)
	close(stop)

	if err := before.Leaked(); err != nil {
		t.Fatal(err)
	}
}

// TestExitInsideSettleWindowPasses: a goroutine still finishing when
// the check starts, and gone within the settle window, is not a leak.
func TestExitInsideSettleWindowPasses(t *testing.T) {
	before := Take()
	go time.Sleep(settle / 4)
	if err := before.Leaked(); err != nil {
		t.Fatal(err)
	}
}
