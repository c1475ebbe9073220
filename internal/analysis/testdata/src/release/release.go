// Package release is the golden-file fixture for the release analyzer
// across its four acquisitions at once: a tree pin, a cursor, a
// buffer-pool frame and a release func. The pinpair, cursorclose,
// latchpair and releasesummary fixtures cover each kind on its own.
package release

import (
	"errors"

	"spatialtf/internal/pager"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

var errLeak = errors.New("leak")

func cond() bool { return false }

type tree struct{ pins int }

func (t *tree) Pin()   { t.pins++ }
func (t *tree) Unpin() { t.pins-- }

// pinBoth is a provider: every return site yields a closure that
// releases both pins.
func pinBoth(a, b *tree) func() {
	a.Pin()
	b.Pin()
	return func() {
		b.Unpin()
		a.Unpin()
	}
}

func open(t *storage.Table) (storage.Cursor, error) {
	return storage.NewCursor(t), nil
}

// leaksEachKind holds all four obligations at once and leaks each on a
// different early return; the frame's own error path leaks nothing
// that it does not also release.
func leaksEachKind(tr *rtree.Tree, t *storage.Table, sp pager.Space, a, b *tree) error {
	tr.Pin() // want `tr\.Pin\(\) is not released on the return path at line 57`
	unpin := pinBoth(a, b)
	cur := storage.NewCursor(t)
	f, err := sp.Pin(1)
	if err != nil {
		tr.Unpin()
		unpin()
		cur.Close()
		return err
	}
	if cond() {
		unpin()
		cur.Close()
		f.Unpin()
		return errLeak
	}
	if cond() {
		tr.Unpin()
		cur.Close()
		f.Unpin()
		return errLeak // want `return leaks release func "unpin" \(obtained at line 44\)`
	}
	if cond() {
		tr.Unpin()
		unpin()
		f.Unpin()
		return errLeak // want `return leaks cursor "cur" \(opened at line 45\)`
	}
	if cond() {
		tr.Unpin()
		unpin()
		cur.Close()
		return errLeak // want `return leaks pinned frame "f" \(pinned at line 46\)`
	}
	tr.Unpin()
	unpin()
	f.Unpin()
	return cur.Close()
}

// deferBeforePin registers the release before the pin: the defer still
// runs at every exit.
func deferBeforePin(t *rtree.Tree) {
	defer t.Unpin()
	t.Pin()
	if cond() {
		return
	}
}

// reboundRelease rebinds a release func with `=` once the first one is
// released; the second binding is deferred.
func reboundRelease(a, b *tree) {
	unpin := pinBoth(a, b)
	unpin()
	unpin = pinBoth(b, a)
	defer unpin()
}

// reboundReleaseLeaks rebinds a release func with `=` and leaks the
// second binding: the rebinding's own left-hand side hands nothing off.
func reboundReleaseLeaks(a, b *tree) {
	unpin := pinBoth(a, b)
	unpin()
	unpin = pinBoth(b, a)
	if cond() {
		return // want `return leaks release func "unpin"`
	}
	unpin()
}

// usedCursorErrIsNotExcused: once the cursor has been used, `err !=
// nil` is some later call's error, not the open's.
func usedCursorErrIsNotExcused(t *storage.Table) error {
	cur, err := open(t)
	if err != nil {
		return err
	}
	_, _, _, err = cur.Next()
	if err != nil {
		return err // want `return leaks cursor "cur"`
	}
	return cur.Close()
}

// discardInLiteral discards a release func inside a goroutine body:
// one finding, from the literal's own scope.
func discardInLiteral(a, b *tree) {
	go func() {
		pinBoth(a, b) // want `release func returned by pinBoth is discarded`
	}()
}

// nilCursorDoesNotHideLeak: a nil check is not a use of the cursor,
// and only its nil branch is excused.
func nilCursorDoesNotHideLeak(t *storage.Table) error {
	cur, err := open(t)
	if err != nil {
		return err
	}
	if cur == nil {
		return nil
	}
	if cond() {
		return errLeak // want `return leaks cursor "cur"`
	}
	return cur.Close()
}

// nilFrameDoesNotHideLeak is the same shape for a frame.
func nilFrameDoesNotHideLeak(sp pager.Space) error {
	f, err := sp.Pin(2)
	if err != nil {
		return err
	}
	if f == nil {
		return nil
	}
	if cond() {
		return errLeak // want `return leaks pinned frame "f"`
	}
	f.Unpin()
	return nil
}
