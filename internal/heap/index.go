package heap

import (
	"slices"

	"dgc/internal/ids"
)

// Index is a dense, array-backed view of one heap: objects are numbered by
// ascending ObjID, local references become int32 adjacency lists, and the
// distinct remote targets get a reverse holder table (objects per target).
//
// Adjacency and holder lists live in flat backing arrays (compressed sparse
// rows), so a build makes a constant number of allocations however large the
// heap. The LGC marks and sweeps on the index and the summarizer of the same
// round reuses it (see Heap.Index). An Index is a snapshot of the heap's
// structure: it is not updated by later mutations.
type Index struct {
	h   *Heap
	gen uint64      // the heap epoch the index describes
	ids []ids.ObjID // ascending; slice position is the dense index

	// Local out-edges of position p: adj[adjOff[p]:adjOff[p+1]], dangling
	// refs dropped.
	adjOff []int32
	adj    []int32

	targets []ids.GlobalRef // distinct remote targets, canonical order
	// Holder positions of target t: holders[holdOff[t]:holdOff[t+1]],
	// ascending.
	holdOff []int32
	holders []int32
}

// Index returns the dense index of the heap's current structure. It reuses
// the index cached for the current mutation epoch, which is the one the last
// LGC sweep compacted or the last Index call built, and otherwise builds
// and caches a fresh one. Callers must not modify it.
func (h *Heap) Index() *Index {
	if h.ix == nil || h.ix.gen != h.gen {
		h.ix = h.BuildIndex()
	}
	return h.ix
}

// BuildIndex constructs a fresh dense view of the heap's current structure
// in O(V + E), bypassing the cache.
func (h *Heap) BuildIndex() *Index {
	n := len(h.objects)
	ix := &Index{h: h, gen: h.gen, ids: make([]ids.ObjID, 0, n)}

	// One pass over the objects: ids, edge total, and the distinct remote
	// targets with their holder counts.
	objs := make([]*Object, 0, n)
	tslot := make(map[ids.GlobalRef]int32)
	nlocal := 0
	for _, id := range h.order {
		o := h.objects[id]
		if o == nil {
			continue // deleted, not yet compacted out of the order
		}
		ix.ids = append(ix.ids, id)
		objs = append(objs, o)
		nlocal += len(o.Locals)
		for ri, r := range o.Remotes {
			if !slices.Contains(o.Remotes[:ri], r) {
				tslot[r]++
			}
		}
	}

	// Resolve local refs to positions through a dense table over the id
	// span when the ids are compact, the usual case since ids are allocated
	// monotonically and most garbage dies young; by binary search otherwise.
	pos := ix.Pos
	if n > 0 {
		first, span := ix.ids[0], ix.ids[n-1]-ix.ids[0]+1
		if span <= 4*ids.ObjID(n) {
			slot := make([]int32, span) // position + 1; 0 for no object
			for i, id := range ix.ids {
				slot[id-first] = int32(i) + 1
			}
			pos = func(id ids.ObjID) (int32, bool) {
				if id < first || id-first >= span {
					return 0, false
				}
				p := slot[id-first] - 1
				return p, p >= 0
			}
		}
	}
	ix.adjOff = make([]int32, n+1)
	ix.adj = make([]int32, 0, nlocal)
	for i, o := range objs {
		for _, l := range o.Locals {
			if p, ok := pos(l); ok { // dangling refs fold away
				ix.adj = append(ix.adj, p)
			}
		}
		ix.adjOff[i+1] = int32(len(ix.adj))
	}

	// Canonical target order, so downstream lists come out sorted without a
	// per-list sort. tslot turns from holder count into target position.
	ix.targets = make([]ids.GlobalRef, 0, len(tslot))
	for r := range tslot {
		ix.targets = append(ix.targets, r)
	}
	ids.SortGlobalRefs(ix.targets)
	ix.holdOff = make([]int32, len(ix.targets)+1)
	for t, r := range ix.targets {
		ix.holdOff[t+1] = ix.holdOff[t] + tslot[r]
		tslot[r] = int32(t)
	}

	// Reverse holder table, deduplicated per object (an object holding the
	// same remote ref twice is one holder).
	ix.holders = make([]int32, ix.holdOff[len(ix.targets)])
	fill := slices.Clone(ix.holdOff[:len(ix.targets)])
	for i, o := range objs {
		for ri, r := range o.Remotes {
			if !slices.Contains(o.Remotes[:ri], r) {
				t := tslot[r]
				ix.holders[fill[t]] = int32(i)
				fill[t]++
			}
		}
	}
	return ix
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return len(ix.ids) }

// Pos returns the dense index of an object id.
func (ix *Index) Pos(id ids.ObjID) (int32, bool) {
	p, ok := slices.BinarySearch(ix.ids, id)
	return int32(p), ok
}

// succ returns the local successors of position p.
func (ix *Index) succ(p int32) []int32 { return ix.adj[ix.adjOff[p]:ix.adjOff[p+1]] }

// Targets returns the distinct remote targets held anywhere in the heap, in
// canonical order.
func (ix *Index) Targets() []ids.GlobalRef { return ix.targets }

// Holders returns the dense indices of the objects directly holding the
// remote target with index t, in ascending order. This is the reverse
// holder index, replacing a full-heap scan.
func (ix *Index) Holders(t int32) []int32 { return ix.holders[ix.holdOff[t]:ix.holdOff[t+1]] }

// TargetPos returns the index of a remote target in Targets.
func (ix *Index) TargetPos(target ids.GlobalRef) (int32, bool) {
	t, ok := slices.BinarySearchFunc(ix.targets, target, func(a, b ids.GlobalRef) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	})
	return int32(t), ok
}

// Mark sets marked[p] for every position reachable from the seed objects
// through local references that is not set yet, breadth-first, and returns
// how many it set. Seeds not in the index are ignored, and a set position
// stops the walk, so successive calls over one slice grow a single marking
// and together cost one traversal.
func (ix *Index) Mark(marked []bool, seeds ...ids.ObjID) int {
	queue := make([]int32, 0, len(ix.ids))
	for _, s := range seeds {
		if p, ok := ix.Pos(s); ok && !marked[p] {
			marked[p] = true
			queue = append(queue, p)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, e := range ix.succ(queue[head]) {
			if !marked[e] {
				marked[e] = true
				queue = append(queue, e)
			}
		}
	}
	return len(queue)
}

// RootFlags computes, per dense index, whether the object is reachable from
// the process-local root set: the Local.Reach input of the summarizer.
func (ix *Index) RootFlags() []bool {
	reach := make([]bool, len(ix.ids))
	ix.Mark(reach, ix.h.Roots()...)
	return reach
}

// Sweep deletes from the heap every indexed object whose live flag is false
// and returns how many it deleted. It then compacts the index in place down
// to the survivors and caches it as the heap's index for the new epoch.
//
// The compacted index is exactly what BuildIndex would return for the swept
// heap: survivors keep their ascending order, their edges to swept objects
// become dangling and drop out as a rebuild drops them, and a target keeps
// its canonical place while some survivor holds it. ix must describe the
// heap's current epoch.
func (ix *Index) Sweep(live []bool) int {
	h := ix.h
	if ix.gen != h.gen {
		panic("heap: Sweep on an index of an older epoch")
	}
	n := len(ix.ids)
	newPos := make([]int32, n)
	kept := int32(0)
	for p, id := range ix.ids {
		if !live[p] {
			newPos[p] = -1
			h.drop(id)
			continue
		}
		newPos[p] = kept
		ix.ids[kept] = id
		kept++
	}
	swept := n - int(kept)
	ix.ids = ix.ids[:kept]
	h.order = append(h.order[:0], ix.ids...)
	h.dead = 0

	// Every write below lands at or before the position being read.
	w, lo := int32(0), ix.adjOff[0]
	for p := 0; p < n; p++ {
		hi := ix.adjOff[p+1]
		if np := newPos[p]; np >= 0 {
			ix.adjOff[np] = w
			for _, e := range ix.adj[lo:hi] {
				if q := newPos[e]; q >= 0 {
					ix.adj[w] = q
					w++
				}
			}
		}
		lo = hi
	}
	ix.adjOff[kept] = w
	ix.adjOff = ix.adjOff[:kept+1]
	ix.adj = ix.adj[:w]

	w, lo = 0, 0
	nt := 0
	for t, tgt := range ix.targets {
		hi := ix.holdOff[t+1]
		start := w
		for _, hp := range ix.holders[lo:hi] {
			if q := newPos[hp]; q >= 0 {
				ix.holders[w] = q
				w++
			}
		}
		lo = hi
		if w > start {
			ix.targets[nt] = tgt
			ix.holdOff[nt] = start
			nt++
		}
	}
	ix.holdOff[nt] = w
	ix.targets = ix.targets[:nt]
	ix.holdOff = ix.holdOff[:nt+1]
	ix.holders = ix.holders[:w]

	ix.gen = h.gen
	h.ix = ix
	return swept
}

// Equal reports whether two indexes describe the same structure: the same
// ids, adjacency, remote targets and holder lists.
func (ix *Index) Equal(o *Index) bool {
	return slices.Equal(ix.ids, o.ids) &&
		slices.Equal(ix.adjOff, o.adjOff) && slices.Equal(ix.adj, o.adj) &&
		slices.Equal(ix.targets, o.targets) &&
		slices.Equal(ix.holdOff, o.holdOff) && slices.Equal(ix.holders, o.holders)
}

// SCC computes the strongly connected components of the local reference
// graph with an iterative Tarjan traversal. It returns the component id per
// dense index and the component count. Component ids are assigned in
// completion order, so every condensation edge u -> v satisfies
// comp[u] > comp[v]: ascending component id is a reverse-topological order
// of the condensation.
func (ix *Index) SCC() (comp []int32, ncomp int32) {
	n := len(ix.ids)
	comp = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onstack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	stack := make([]int32, 0, n)
	type frame struct {
		v  int32
		ei int32 // next edge, an offset into ix.adj
	}
	var call []frame
	var next int32

	push := func(v int32) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onstack[v] = true
		call = append(call, frame{v: v, ei: ix.adjOff[v]})
	}

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		push(int32(root))
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < ix.adjOff[f.v+1] {
				w := ix.adj[f.ei]
				f.ei++
				if index[w] == -1 {
					push(w)
				} else if onstack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// f.v fully explored.
			if low[f.v] == index[f.v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack[w] = false
					comp[w] = ncomp
					if w == f.v {
						break
					}
				}
				ncomp++
			}
			lowV := low[f.v]
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := &call[len(call)-1]
				if lowV < low[parent.v] {
					low[parent.v] = lowV
				}
			}
		}
	}
	return comp, ncomp
}

// Condense returns the condensation adjacency in the same flat form as the
// index: the distinct successor components of component c are
// to[off[c]:off[c+1]] (self-edges removed). The dedup is best-effort via a
// last-seen stamp; occasional duplicate entries are harmless to bitset
// propagation and bounded by the edge count. One pass counts, a second
// fills, so the result takes two allocations.
func (ix *Index) Condense(comp []int32, ncomp int32) (off, to []int32) {
	lastSeen := make([]int32, ncomp)
	// each calls fn for every condensation edge, with the same dedup
	// decisions on every call.
	each := func(fn func(cv, cw int32)) {
		for i := range lastSeen {
			lastSeen[i] = -1
		}
		for v := range ix.ids {
			cv := comp[v]
			for _, w := range ix.succ(int32(v)) {
				cw := comp[w]
				if cw == cv || lastSeen[cw] == cv {
					continue
				}
				lastSeen[cw] = cv
				fn(cv, cw)
			}
		}
	}
	off = make([]int32, ncomp+1)
	each(func(cv, _ int32) { off[cv+1]++ })
	for c := int32(0); c < ncomp; c++ {
		off[c+1] += off[c]
	}
	to = make([]int32, off[ncomp])
	fill := slices.Clone(off[:ncomp])
	each(func(cv, cw int32) {
		to[fill[cv]] = cw
		fill[cv]++
	})
	return off, to
}
