package heap

import (
	"dgc/internal/ids"
)

// ReachableFrom computes the set of objects transitively reachable from the
// given seed objects following intra-process references only (inter-process
// references are the boundary of the local trace; the distributed layers
// handle them through stubs and scions). Seeds that do not exist are ignored.
//
// The traversal is breadth-first, matching the paper's summarizer ("it
// transverses the graph, breadth-first, in order to minimize overhead"). The
// returned map is owned by the caller. The collectors trace on the heap's
// dense Index instead; this map-based walk serves the baseline collectors
// and the reference summarizer.
func (h *Heap) ReachableFrom(seeds ...ids.ObjID) map[ids.ObjID]struct{} {
	visited := make(map[ids.ObjID]struct{})
	var queue []ids.ObjID
	visit := func(id ids.ObjID) {
		if _, seen := visited[id]; !seen && h.Contains(id) { // dangling refs stop here
			visited[id] = struct{}{}
			queue = append(queue, id)
		}
	}
	for _, s := range seeds {
		visit(s)
	}
	for head := 0; head < len(queue); head++ {
		for _, next := range h.objects[queue[head]].Locals {
			visit(next)
		}
	}
	return visited
}

// ReachableFromRoots computes the locally reachable set: objects transitively
// reachable from the process-local root set.
func (h *Heap) ReachableFromRoots() map[ids.ObjID]struct{} {
	return h.ReachableFrom(h.Roots()...)
}

// RemoteRefsFrom returns the distinct inter-process references held by
// objects in the given set, in canonical order. This is the stub-set
// computation: the stubs a process needs are exactly the remote references
// held by its live objects.
func (h *Heap) RemoteRefsFrom(set map[ids.ObjID]struct{}) []ids.GlobalRef {
	seen := make(map[ids.GlobalRef]struct{})
	for id := range set {
		o := h.objects[id]
		if o == nil {
			continue
		}
		for _, r := range o.Remotes {
			seen[r] = struct{}{}
		}
	}
	out := make([]ids.GlobalRef, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	ids.SortGlobalRefs(out)
	return out
}

// HoldersOf returns the set of objects that directly hold a remote reference
// to target. This is a full-heap scan; the summarizer uses Index's reverse
// holder table instead.
func (h *Heap) HoldersOf(target ids.GlobalRef) map[ids.ObjID]struct{} {
	holders := make(map[ids.ObjID]struct{})
	for id, o := range h.objects {
		for _, r := range o.Remotes {
			if r == target {
				holders[id] = struct{}{}
				break
			}
		}
	}
	return holders
}

// EdgeCount returns the total number of intra-process plus inter-process
// references in the heap. Used by workload generators and stats.
func (h *Heap) EdgeCount() (local, remote int) {
	for _, o := range h.objects {
		local += len(o.Locals)
		remote += len(o.Remotes)
	}
	return local, remote
}
