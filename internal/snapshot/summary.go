// Package snapshot implements the two snapshot facilities of the paper:
//
//   - serialization of a process's object graph (the costly operation §4
//     measures, with a deliberately naive reflective codec standing in for
//     Rotor's serializer and a compact binary codec standing in for
//     production .NET), and
//
//   - graph summarization: reducing a snapshot to the only information the
//     cycle detector needs — per scion, the stubs transitively reachable
//     from it (StubsFrom); per stub, the scions leading to it (ScionsTo) and
//     a local-reachability flag (Local.Reach); plus the invocation counters
//     captured at snapshot time (§3 "Graph Summarization").
package snapshot

import (
	"math/bits"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// ScionSummary is the summarized-graph record for one scion.
type ScionSummary struct {
	Ref ids.RefID // the incoming reference (Src node -> local object)
	IC  uint64    // scion invocation counter at snapshot time
	// StubsFrom lists the targets of stubs transitively reachable from the
	// scion's object, in canonical order.
	StubsFrom []ids.GlobalRef
	// LocalReach is true when the scion's object is reachable from the
	// local root set; such scions are never cycle candidates.
	LocalReach bool
}

// StubSummary is the summarized-graph record for one stub.
type StubSummary struct {
	Target ids.GlobalRef // the outgoing reference target
	IC     uint64        // stub invocation counter at snapshot time
	// ScionsTo lists the scions (as RefIDs) from which this stub is
	// transitively reachable, in canonical order.
	ScionsTo []ids.RefID
	// LocalReach is the Local.Reach flag: true when at least one object
	// holding this outgoing reference is reachable from the local root set.
	LocalReach bool
}

// Summary is the summarized graph description of one process snapshot. It is
// immutable once built: detectors read it without synchronizing with the
// mutator, which is the whole point of the paper's design.
type Summary struct {
	Node    ids.NodeID
	Version uint64 // monotonically increasing snapshot version per node

	Scions map[ids.RefID]*ScionSummary
	Stubs  map[ids.GlobalRef]*StubSummary
}

// Scion returns the summary record for the given incoming reference, or nil
// if the reference was not present in the snapshot (the condition behind the
// paper's safety rule 1: "stub without corresponding scion -> ignore CDM").
func (s *Summary) Scion(ref ids.RefID) *ScionSummary {
	if s == nil {
		return nil
	}
	return s.Scions[ref]
}

// Stub returns the summary record for the given outgoing reference target,
// or nil.
func (s *Summary) Stub(target ids.GlobalRef) *StubSummary {
	if s == nil {
		return nil
	}
	return s.Stubs[target]
}

// Summarize builds the summarized graph description from a heap and its
// reference tables. The heap passed in should be a snapshot (heap.Clone) when
// the mutator runs concurrently; in the deterministic simulation the live
// heap may be summarized directly between mutator steps.
//
// The engine is single-pass over the heap's dense heap.Index (adjacency plus
// a reverse holder table): the index the LGC swept on when nothing has
// mutated since, a fresh build otherwise. It condenses the local graph into
// strongly connected components and propagates per-component *scion
// bitsets* along the condensation in topological order. Every scion's
// transitive stub set and every stub's scion set then fall out of one
// O(words) union per holder, for a total cost of O(V + E x S/64) instead of
// the former per-scion BFS's O(S x (V + E)). References strictly internal
// to the process fold away; output lists are emitted directly in canonical
// order into exact-size slabs.
func Summarize(h *heap.Heap, table *refs.Table, version uint64) *Summary {
	ix := h.Index()
	rootReach := ix.RootFlags() // Local.Reach per dense index

	// Stub records from the stub table. A remote ref held in the heap
	// without a stub record (possible between LGC rounds) is skipped
	// conservatively, exactly as the per-scion implementation did.
	stubs := table.Stubs()
	scions := table.Scions()
	sum := &Summary{
		Node:    h.Node(),
		Version: version,
		Scions:  make(map[ids.RefID]*ScionSummary, len(scions)),
		Stubs:   make(map[ids.GlobalRef]*StubSummary, len(stubs)),
	}
	stubRecs := make([]StubSummary, len(stubs))
	for i, st := range stubs {
		stubRecs[i] = StubSummary{Target: st.Target, IC: st.IC}
		sum.Stubs[st.Target] = &stubRecs[i]
	}

	// Scion records in canonical (Src, Obj) order. Because every RefID
	// shares this node as Dst.Node, canonical RefID order coincides with
	// this order, so lists built by ascending scion index need no sort.
	self := h.Node()
	nscions := len(scions)
	words := (nscions + 63) / 64
	scRecs := make([]ScionSummary, nscions)
	for i, sc := range scions {
		lr := false
		if p, ok := ix.Pos(sc.Obj); ok {
			lr = rootReach[p]
		}
		scRecs[i] = ScionSummary{Ref: sc.RefID(self), IC: sc.IC, LocalReach: lr}
		sum.Scions[scRecs[i].Ref] = &scRecs[i]
	}

	if nscions == 0 {
		// No scions: only the stubs' Local.Reach flags are needed.
		for t, tgt := range ix.Targets() {
			ss := sum.Stubs[tgt]
			if ss == nil {
				continue
			}
			for _, hp := range ix.Holders(int32(t)) {
				if rootReach[hp] {
					ss.LocalReach = true
					break
				}
			}
		}
		return sum
	}

	// Seed each scion's bit at its object's component, then push the
	// bitsets through the condensation DAG. Component ids come out of
	// Tarjan in completion order, so descending id is a topological order:
	// processing a component pushes the union of everything that reaches it
	// onto its successors exactly once.
	comp, ncomp := ix.SCC()
	rows := make([]uint64, int(ncomp)*words)
	for i, sc := range scions {
		if p, ok := ix.Pos(sc.Obj); ok {
			row := rows[int(comp[p])*words:]
			row[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	compOff, compTo := ix.Condense(comp, ncomp)
	for c := int(ncomp) - 1; c >= 0; c-- {
		row := rows[c*words : (c+1)*words]
		for _, d := range compTo[compOff[c]:compOff[c+1]] {
			drow := rows[int(d)*words : (int(d)+1)*words]
			for w := range drow {
				drow[w] |= row[w]
			}
		}
	}

	// Emit: for each stub target (canonical order), the union of its
	// holders' scion sets gives its ScionsTo and one StubsFrom entry per
	// member scion. Both orders are canonical by construction. A first pass
	// counts the bits so a second can fill exact-size slabs; empty lists
	// stay nil.
	union := make([]uint64, words)
	unionOf := func(t int) {
		clear(union)
		for _, hp := range ix.Holders(int32(t)) {
			row := rows[int(comp[hp])*words:]
			for w := range union {
				union[w] |= row[w]
			}
		}
	}
	fromLen := make([]int, nscions)
	pairs := 0 // (scion, stub) pairs: the length of both slabs
	for t, tgt := range ix.Targets() {
		ss := sum.Stubs[tgt]
		if ss == nil {
			continue
		}
		for _, hp := range ix.Holders(int32(t)) {
			if rootReach[hp] {
				ss.LocalReach = true
				break
			}
		}
		unionOf(t)
		for w, word := range union {
			pairs += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				fromLen[w*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	fromSlab := make([]ids.GlobalRef, pairs)
	off := 0
	for i, n := range fromLen {
		if n > 0 {
			scRecs[i].StubsFrom = fromSlab[off : off : off+n]
			off += n
		}
	}
	toSlab := make([]ids.RefID, 0, pairs)
	for t, tgt := range ix.Targets() {
		ss := sum.Stubs[tgt]
		if ss == nil {
			continue
		}
		unionOf(t)
		start := len(toSlab)
		for w, word := range union {
			for ; word != 0; word &= word - 1 {
				si := w*64 + bits.TrailingZeros64(word)
				scRecs[si].StubsFrom = append(scRecs[si].StubsFrom, tgt)
				toSlab = append(toSlab, scRecs[si].Ref)
			}
		}
		if len(toSlab) > start {
			ss.ScionsTo = toSlab[start:len(toSlab):len(toSlab)]
		}
	}
	return sum
}
