// Package hotalloc is the golden-file fixture for the hotalloc
// analyzer: no hidden allocations on declared hot paths. It exercises
// the way into the hot set (//spatiallint:hot annotations), every
// finding shape, and the exemptions that keep the rule quiet on
// idiomatic allocation-free code.
package hotalloc

import (
	"fmt"
	"sync"
)

type sink struct{ b []byte }

// --- direct sites and the self-append exemption ---

//spatiallint:hot
func Hot(n int) []int {
	out := make([]int, 0, n) // want `hot path allocation: make\(\[\]int, 0, n\) \(escapes to caller\)`
	for i := 0; i < n; i++ {
		out = append(out, i) // self-append: amortised growth, exempt
	}
	return out
}

//spatiallint:hot
func HotConvert(s string) []byte {
	return []byte(s) // want `hot path allocation: copying conversion \[\]byte\(s\)`
}

// --- transitive sites with via-chains ---

func deepHelper() *sink {
	return &sink{} // two hops below the hot function
}

func helper() *sink {
	return deepHelper()
}

//spatiallint:hot
func HotTrans() *sink {
	return helper() // want `hot path call to helper allocates: &sink\{\} at hotalloc\.go:\d+ via deepHelper`
}

// --- loop-shape sub-diagnostics ---

//spatiallint:hot
func HotLoop(closers []func() error, m map[string]int) int {
	for _, c := range closers {
		defer c() // want `defer inside a hot loop: a deferred frame is queued every iteration; hoist it out of the loop`
	}
	total := 0
	for range closers {
		for k := range m { // want `map iteration inside a hot loop: order is randomized each pass; iterate a sorted slice instead`
			total += m[k]
		}
	}
	return total
}

// --- pool bypass ---

type buffer struct{ b [256]byte }

var bufPool = sync.Pool{New: func() any { return new(buffer) }}

//spatiallint:hot
func HotPool() int {
	b := new(buffer) // want `hot path allocates .*hotalloc\.buffer which has a sync\.Pool \(declared at hotalloc\.go:\d+\); get from the pool instead`
	return len(b.b)
}

// --- interface boxing ---

//spatiallint:hot
func HotBox(vs []int) []any {
	out := make([]any, 0, len(vs)) // want `hot path allocation: make\(\[\]any, 0, len\(vs\)\) \(escapes to caller\)`
	for _, v := range vs {
		out = append(out, v) // want `hot path allocation: v boxed into interface`
	}
	return out
}

// --- escaping closures ---

//spatiallint:hot
func HotClosure(n int) func() int {
	return func() int { return n } // want `hot path allocation: closure \(escapes to caller\)`
}

// --- exemptions: none of the following may produce findings ---

// SeededScan is a hot root whose doc comment carries more than the
// marker; the conversion inside the loop proves the annotation took.
//
//spatiallint:hot
func SeededScan(dst []byte, src []string) ([]byte, []byte) {
	var last []byte
	for _, s := range src {
		dst = append(dst, s...) // append to a parameter: caller's buffer, exempt
		last = []byte(s)        // want `hot path allocation: copying conversion \[\]byte\(s\)`
	}
	return dst, last
}

func each(xs []int, f func(int)) {
	for _, x := range xs {
		f(x)
	}
}

//spatiallint:hot
func HotEach(xs []int) int {
	sum := 0
	each(xs, func(v int) { sum += v }) // callee only invokes f: closure does not escape
	return sum
}

//spatiallint:hot
func HotErr(xs []int, i int) (int, error) {
	if i >= len(xs) {
		return 0, fmt.Errorf("hotalloc: index %d out of range", i) // failure exit: cold
	}
	return xs[i], nil
}

// Cold is not hot: its allocation is nobody's business.
func Cold(n int) []int {
	return make([]int, n)
}
