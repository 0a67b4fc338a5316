package workload

import (
	"repro/internal/binhist"
	"repro/internal/history"
	"repro/internal/op"
)

// RetireStats reports how much of a budgeted streaming session has been
// retired: the history stream's own counters plus the per-key analyzer
// state the session released.
type RetireStats struct {
	// Stream is the underlying op stream's retirement counters.
	Stream history.RetireStats
	// RetiredKeys counts keys whose per-key analyzer state (the key's
	// element or value table, its reads, its inferred order and edges)
	// has been released. A key seen again after retirement is treated as
	// brand new and counted again. Always 0 for a workload without Hooks,
	// which keeps no analyzer state to release.
	RetiredKeys int
}

// StreamBudget translates Opts memory settings into a history.Budget
// over the production ellebin segment codec. A zero MemoryBudget yields
// the zero Budget, which disables retirement.
func StreamBudget(opts Opts) history.Budget {
	if opts.MemoryBudget <= 0 {
		return history.Budget{}
	}
	return history.Budget{
		Window:   opts.MemoryBudget,
		Codec:    binhist.Segments{},
		SpillDir: opts.SpillDir,
	}
}

// KeyTracker is a budgeted Session's quiescence bookkeeping: it
// timestamps every key's last touch in completion counts, holds each op
// a live key pins — once, with the count of keys pinning it — and sweeps
// out keys untouched for a full window, with the ops only they pinned.
// The session hands the swept keys to its Hooks' Retire and resolves the
// ops its hooks cite through Op. A retired key seen again is simply
// re-tracked from zero — hooks treat resurrected keys as brand new, which
// is sound for provisional findings (Finish re-analyzes the full
// history).
type KeyTracker struct {
	window    int
	comps     int
	lastSweep int
	lastTouch []int   // per KeyID: comps at last touch; 0 = unseen or retired
	opsOfKey  [][]int // per KeyID: op indices pinned by this key
	pins      map[int]pin
	retired   int
}

// pin is one pinned op and the number of live keys pinning it.
type pin struct {
	o    op.Op
	keys int
}

// NewKeyTracker tracks quiescence over the given completion window.
func NewKeyTracker(window int) *KeyTracker {
	return &KeyTracker{window: window, pins: map[int]pin{}}
}

// NoteOp records one completion op, pinning it once per distinct key it
// touches (keys resolve through the session's interner), and reports
// whether anything pins it. An op touching no keys can never be cited:
// it does not count toward the window and the session drops it at once.
func (t *KeyTracker) NoteOp(o op.Op, in *history.Interner) bool {
	if len(o.Mops) == 0 {
		return false
	}
	t.comps++
	p := pin{o: o}
	for _, m := range o.Mops {
		k := in.MustID(m.Key)
		t.lastTouch = history.GrowKeyed(t.lastTouch, k)
		if t.lastTouch[k] == t.comps {
			continue // an earlier mop of o touched k
		}
		t.opsOfKey = history.GrowKeyed(t.opsOfKey, k)
		t.lastTouch[k] = t.comps
		t.opsOfKey[k] = append(t.opsOfKey[k], o.Index)
		p.keys++
	}
	t.pins[o.Index] = p
	return true
}

// Op returns the pinned op with the given index, if a live key pins it
// (see history.Lookup).
func (t *KeyTracker) Op(index int) (op.Op, bool) {
	p, ok := t.pins[index]
	return p.o, ok
}

// Sweep retires every key untouched for a full window and releases the
// ops no live key pins any longer, returning the retired keys (nil when
// a window hasn't elapsed since the last sweep). Ops die only with keys.
func (t *KeyTracker) Sweep() (dead []history.KeyID) {
	if t.comps-t.lastSweep < t.window {
		return nil
	}
	t.lastSweep = t.comps
	horizon := t.comps - t.window
	for k, touch := range t.lastTouch {
		if touch == 0 || touch > horizon {
			continue
		}
		dead = append(dead, history.KeyID(k))
		t.lastTouch[k] = 0
		for _, i := range t.opsOfKey[k] {
			if p := t.pins[i]; p.keys > 1 {
				p.keys--
				t.pins[i] = p
			} else {
				delete(t.pins, i)
			}
		}
		t.opsOfKey[k] = nil
	}
	t.retired += len(dead)
	return dead
}

// RetiredKeys returns the total keys retired over the tracker's life.
func (t *KeyTracker) RetiredKeys() int { return t.retired }
