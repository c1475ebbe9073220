package daemon

import (
	"testing"

	"spatialtf/internal/leakcheck"
)

// TestMain fails the package's tests if a goroutine they started
// outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
