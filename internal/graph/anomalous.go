package graph

import (
	"cmp"
	"slices"
	"strconv"

	"repro/internal/par"
)

// AnomalousCycles runs the §6 searches, from most to least specific,
// deduplicating cycles that multiple searches find: G0 over ww edges,
// G1c over ww+wr, G-single with exactly one rw, and G2 with one or more
// rw. Extra ordering edges (process, realtime, timestamp) participate
// in every search; anomaly classification downgrades cycles that need
// them to the -process / -realtime / -timestamp variants.
//
// One Tarjan over the full mask finds every component any search can
// find a cycle in: a component over the ww or ww+wr mask lies inside
// one over the full mask. Each full component becomes a view; G-single
// and G2 search it directly, and G0 and G1c search the components of
// their masks inside it. The views are searched concurrently across p
// workers; deduplication walks the results in fixed search order,
// keeping the report identical at every parallelism level.
func (g *Graph) AnomalousCycles(extra KindSet, p int) []Cycle {
	cycles, _ := g.AnomalousComponents(extra, p)
	return cycles
}

// AnomalousComponents is AnomalousCycles, also returning how many
// components over KSDep|extra it searched: the count of cyclic
// components a report states, taken from the search's own Tarjan.
func (g *Graph) AnomalousComponents(extra KindSet, p int) (cycles []Cycle, components int) {
	views := g.views(KSDep | extra)
	return anomalous(views, extra, p), len(views)
}

// anomalous runs the AnomalousCycles searches over views, the
// components over KSDep|extra. The batch checker hands it every
// component of the whole graph; the streaming sessions, through
// Incr.DirtyCycles, the components a chunk dirtied.
func anomalous(views []*view, extra KindSet, p int) []Cycle {
	full := KSDep | extra
	nested := [2]KindSet{KSWW | extra, KSWWWR | extra}
	type found struct {
		nested     [2][]Cycle // G0 and G1c witnesses in this view
		single, g2 foundCycle
	}
	per := par.Map(p, len(views), func(i int) found {
		v := views[i]
		var f found
		for j, mask := range nested {
			for _, sub := range split(v.nodes, v.adj, tarjan(v.adj, mask), mask) {
				if c := sub.loop(mask); c.ok {
					f.nested[j] = append(f.nested[j], c.c)
				}
			}
		}
		f.single = v.through(RW, KSWWWR|extra)
		f.g2 = v.through(RW, full)
		return f
	})

	var searches [4][]Cycle
	for j := range nested {
		// Each witness starts at its component's smallest node, which
		// puts the components of every view back in one order.
		for _, f := range per {
			searches[j] = append(searches[j], f.nested[j]...)
		}
		slices.SortFunc(searches[j], func(a, b Cycle) int { return cmp.Compare(a.Steps[0].From, b.Steps[0].From) })
	}
	for _, f := range per {
		if f.single.ok {
			searches[2] = append(searches[2], f.single.c)
		}
		if f.g2.ok {
			searches[3] = append(searches[3], f.g2.c)
		}
	}

	seen := map[cycleSig]bool{}
	var out []Cycle
	for _, cs := range searches {
		for _, c := range cs {
			sig := sigOf(c)
			if !seen[sig] {
				seen[sig] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// cycleSig is a comparable canonical signature of a cycle's node set:
// the sorted nodes inline for cycles of up to eight steps, the string
// CycleKey as a spill otherwise. A struct key keeps the dedup on the
// SCC search hot path allocation-free, where CycleKey builds a string
// per candidate cycle.
type cycleSig struct {
	n     int
	nodes [8]int64
	spill string
}

// sigOf computes the comparable signature of c without allocating:
// each step's From node is insertion-sorted into the inline array,
// avoiding the slice Cycle.Nodes would allocate. Cycles longer than
// eight steps (rare: the searches return shortest witnesses) fall back
// to the spill string; n = -1 keeps spilled signatures from colliding
// with inline ones.
func sigOf(c Cycle) cycleSig {
	var s cycleSig
	if len(c.Steps) > len(s.nodes) {
		return cycleSig{n: -1, spill: CycleKey(c)}
	}
	s.n = len(c.Steps)
	for i, st := range c.Steps {
		v := int64(st.From)
		j := i
		for ; j > 0 && s.nodes[j-1] > v; j-- {
			s.nodes[j] = s.nodes[j-1]
		}
		s.nodes[j] = v
	}
	return s
}

// CycleKey canonicalizes a cycle by its sorted node set as a string;
// two witnesses over the same transactions are considered the same
// finding. The batch deduplication above uses the comparable cycleSig
// form of the same identity; the string form remains for the streaming
// sessions' "already surfaced" bookkeeping, whose keys mix cycle and
// non-cycle findings in one table.
func CycleKey(c Cycle) string {
	nodes := c.Nodes()
	slices.Sort(nodes)
	b := make([]byte, 0, 8*len(nodes))
	for _, n := range nodes {
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, ',')
	}
	return string(b)
}
