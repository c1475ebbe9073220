package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spatialtf/internal/analysis"
)

func TestListRules(t *testing.T) {
	var buf bytes.Buffer
	listRules(&buf)
	out := buf.String()
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out, a.Name) || !strings.Contains(out, a.Doc) {
			t.Errorf("rule %s missing from -rules output:\n%s", a.Name, out)
		}
	}
	if got, want := strings.Count(out, "\n"), len(analysis.Analyzers()); got != want {
		t.Errorf("-rules printed %d lines, want %d", got, want)
	}
}

// TestUnknownRuleFailsLoudly: disabling a rule the suite does not have
// — including the names of rules since removed or folded into another —
// is a usage error, not a silent no-op, so a stale -disable in a script
// surfaces at once.
func TestUnknownRuleFailsLoudly(t *testing.T) {
	for _, name := range []string{"lockorder", "atomicmix", "metricname", "pinpair", "goleak", "taintsize", "nosuchrule"} {
		var stderr bytes.Buffer
		if status := run([]string{"-disable", name}, &stderr); status != 2 {
			t.Errorf("-disable %s: exit status %d, want 2", name, status)
		}
		want := fmt.Sprintf("unknown analyzer %q (try -rules)", name)
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-disable %s: stderr %q, want it to contain %q", name, stderr.String(), want)
		}
	}
}
