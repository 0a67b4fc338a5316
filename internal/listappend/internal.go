package listappend

import (
	"fmt"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/op"
)

// keyModel tracks what a transaction must believe about one key.
type keyModel struct {
	key string
	// known is true once the transaction has read the key, fixing the
	// full expected value.
	known bool
	// value is the full expected value when known. It aliases the
	// observed list, capacity clipped, so the transaction's first own
	// append after a read copies it and later ones extend the copy.
	value []int
	// appended holds the transaction's own appends since the last read
	// (or since the start, if it has never read the key). When !known,
	// any observed value must end with exactly these elements.
	appended []int
}

// internalAnomalies verifies one committed transaction against its own
// reads and writes (§6.1, "internal inconsistency"): within one
// transaction, a read of key k must equal the transaction's previously
// observed value of k extended by any of its own intervening appends;
// before the first read, an observed value must at least end with
// whatever the transaction has itself appended so far.
//
// FaunaDB's index bug (§7.3) — a transaction appending 6 to key 0 and then
// reading nil — is the canonical violation.
func (a *analyzer) internalAnomalies(o op.Op) []anomaly.Anomaly {
	var out []anomaly.Anomaly
	// A transaction touches a handful of keys: a small slice searched
	// linearly, one pointer live at a time.
	var buf [4]keyModel
	models := buf[:0]
	model := func(k string) *keyModel {
		for i := range models {
			if models[i].key == k {
				return &models[i]
			}
		}
		models = append(models, keyModel{key: k})
		return &models[len(models)-1]
	}
	for _, mop := range o.Mops {
		m := model(mop.Key)
		switch mop.F {
		case op.FAppend:
			if m.known {
				m.value = append(m.value, mop.Arg)
			} else {
				m.appended = append(m.appended, mop.Arg)
			}
		case op.FRead:
			if !mop.ListKnown() {
				continue
			}
			observed := mop.List
			if m.known {
				if !slices.Equal(observed, m.value) {
					out = append(out, anomaly.Anomaly{
						Type: anomaly.Internal,
						Ops:  []op.Op{o},
						Key:  mop.Key,
						Explanation: fmt.Sprintf(
							"%s read key %s as %s, but its own prior reads and appends imply the value must be %s: an internal inconsistency",
							o.Name(), mop.Key, op.FormatList(observed), op.FormatList(m.value)),
					})
				}
			} else if n := len(observed) - len(m.appended); n < 0 || !slices.Equal(observed[n:], m.appended) {
				out = append(out, anomaly.Anomaly{
					Type: anomaly.Internal,
					Ops:  []op.Op{o},
					Key:  mop.Key,
					Explanation: fmt.Sprintf(
						"%s read key %s as %s, which does not end with its own prior appends %s: an internal inconsistency",
						o.Name(), mop.Key, op.FormatList(observed), op.FormatList(m.appended)),
				})
			}
			// Whatever was observed is the transaction's view from here on.
			m.known = true
			m.value = observed[:len(observed):len(observed)]
			m.appended = nil
		}
	}
	return out
}
