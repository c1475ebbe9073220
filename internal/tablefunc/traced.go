package tablefunc

import (
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// Traced wraps fn so every start, fetch, and close call is recorded as
// a span on tr — the observable form of the paper's start-fetch-close
// interface. A nil trace returns fn unchanged, so untraced execution
// pays nothing, not even the wrapper indirection.
func Traced(fn TableFunction, tr *telemetry.Trace) TableFunction {
	if tr == nil {
		return fn
	}
	return &tracedFn{fn: fn, tr: tr}
}

type tracedFn struct {
	fn TableFunction
	tr *telemetry.Trace
}

func (t *tracedFn) Start() error {
	defer t.tr.Span(telemetry.StageStart)()
	return t.fn.Start()
}

func (t *tracedFn) Fetch(b *storage.Batch, max int) error {
	defer t.tr.Span(telemetry.StageFetch)()
	return t.fn.Fetch(b, max)
}

func (t *tracedFn) Close() error {
	defer t.tr.Span(telemetry.StageClose)()
	return t.fn.Close()
}
