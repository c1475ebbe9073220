// Package leakcheck holds the cursor contract at run time: a table
// function is a finite start–fetch–close cursor, so every goroutine a
// test starts — a parallel instance, a connection handler, a reject
// handshake — must have finished once the test's cursors and servers
// are closed. Main wraps a package's tests with that check; Take and
// Leaked scope it to one test.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// settle is how long a goroutine started during the run may take to
// exit after the run ends: one that has been told to stop still has to
// be scheduled and unwind.
const settle = 2 * time.Second

// Snapshot is the goroutines alive at one moment: their stacks by id.
type Snapshot map[uint64][]byte

// Take records the goroutines alive now.
func Take() Snapshot { return stacks() }

// Leaked waits up to the settle window for every goroutine not in s to
// exit, and returns an error quoting the stacks of those still alive.
func (s Snapshot) Leaked() error {
	deadline := time.Now().Add(settle)
	for {
		var leaked [][]byte
		for id, stack := range stacks() {
			if _, ok := s[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutine(s) outlived the run by %v:\n\n%s",
				len(leaked), settle, bytes.Join(leaked, []byte("\n\n")))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Main runs m's tests and fails the binary if any goroutine started
// during them outlives them: use it as a package's whole TestMain.
func Main(m *testing.M) {
	before := Take()
	code := m.Run()
	if code == 0 {
		if err := before.Leaked(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// stacks returns every live goroutine's stack, keyed by the id in its
// "goroutine N [state]:" header. The signal-delivery goroutine is left
// out: the first signal.Notify in the process starts it (the fuzzing
// engine calls one), and it lives as long as the process does.
func stacks() Snapshot {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := Snapshot{}
	for _, stack := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(stack, []byte("\nos/signal.loop()")) {
			continue
		}
		hdr, _, _ := bytes.Cut(bytes.TrimPrefix(stack, []byte("goroutine ")), []byte(" "))
		if id, err := strconv.ParseUint(string(hdr), 10, 64); err == nil {
			out[id] = stack
		}
	}
	return out
}
