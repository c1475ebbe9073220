package geom

import "testing"

// CorpusGeoms returns each geometry of the test corpus once, for the
// external tests of packages built on geom (tessellate_test.go).
func CorpusGeoms(t testing.TB) []Geometry {
	t.Helper()
	var out []Geometry
	for _, c := range append(generatedPairs(t, 1, 400), joinShapes(t, 120)...) {
		out = append(out, c.a, c.b)
	}
	for _, g := range adversarialGroups(t) {
		out = append(out, g...)
	}
	return out
}
