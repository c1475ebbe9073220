package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"strings"
	"testing"
)

// hashDataset feeds every vertex of ds, ring by ring, into h as the
// IEEE-754 bits of its coordinates, so a single changed ulp anywhere
// changes the digest. Ring lengths go in too, so a moved vertex cannot
// hide behind a neighbour's.
func hashDataset(h hash.Hash, ds Dataset) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(ds.Geoms)))
	for _, g := range ds.Geoms {
		put(uint64(g.Kind))
		put(uint64(len(g.Rings)))
		for _, r := range g.Rings {
			put(uint64(len(r)))
			for _, p := range r {
				put(math.Float64bits(p.X))
				put(math.Float64bits(p.Y))
			}
		}
	}
}

// goldenCases are the generators' pinned digests: over every size and
// seed, hashDataset of the output.
var goldenCases = []struct {
	name  string
	sizes []int
	gen   func(int, int64) Dataset
	want  string
}{
	{"counties", []int{1, 7, 36, 225, 256, 625, 1000, 3230}, Counties,
		"16b0406d5344d8b568f16cbfa6becba83823ac665e494bf96515f40f0fbecc0a"},
	{"stars", []int{1, 250, 2000}, Stars,
		"8fb8bde68a8ba88306222d226f711fc37766a0f1e53f7e222c50740c88cfd0ed"},
	{"blockgroups", []int{1, 300}, BlockGroups,
		"189b5a8565692c85793d62447b3484964039aa8bee63d43171206a516c1410bf"},
}

// goldenDigest hashes gen's output over sizes at three seeds.
func goldenDigest(sizes []int, gen func(int, int64) Dataset) string {
	h := sha256.New()
	for _, n := range sizes {
		for _, seed := range []int64{1, 19, -7} {
			hashDataset(h, gen(n, seed))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsGolden pins the generators' output bit for bit: every
// workload's data, result sizes and answer digests derive from it, so a
// speed-up of a generator must leave these digests where they are.
func TestGeneratorsGolden(t *testing.T) {
	for _, c := range goldenCases {
		if got := goldenDigest(c.sizes, c.gen); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestByName: each name the commands accept generates what its
// generator does, vertex for vertex, and any other name is an error
// that lists the three.
func TestByName(t *testing.T) {
	for _, c := range goldenCases {
		got := goldenDigest(c.sizes, func(n int, seed int64) Dataset {
			ds, err := ByName(c.name, n, seed)
			if err != nil {
				t.Fatalf("ByName(%q): %v", c.name, err)
			}
			return ds
		})
		if got != c.want {
			t.Errorf("ByName(%q) digest = %s, want %s", c.name, got, c.want)
		}
	}
	_, err := ByName("parcels", 10, 1)
	if err == nil {
		t.Fatal("ByName(parcels): no error")
	}
	for _, name := range []string{"parcels", "counties", "stars", "blockgroups"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ByName(parcels) error %q does not name %s", err, name)
		}
	}
}

// TestCountiesAllocBudget bounds what one Counties(1000) call
// allocates: the rings it returns (≈ 1.3 MB) plus the corner and edge
// tables, with room to spare. A generator that builds a fresh RNG
// source per edge, or generates each shared edge twice, spends several
// times this.
func TestCountiesAllocBudget(t *testing.T) {
	const budget = 4 << 20
	Counties(1000, 1) // warm-up: leave one-time runtime allocations out
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	Counties(1000, 1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Counties(1000) allocated %d bytes, budget %d", got, budget)
	}
}

func BenchmarkCounties(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Counties(1000, int64(i))
	}
}
