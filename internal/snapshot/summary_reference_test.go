package snapshot

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/refs"
	"dgc/internal/workload"
)

// summarizeReference is the original per-scion BFS summarizer, kept verbatim
// as the executable specification the single-pass engine is checked against.
// Cost is O(scions x heap) worst case.
func summarizeReference(h *heap.Heap, table *refs.Table, version uint64) *Summary {
	sum := &Summary{
		Node:    h.Node(),
		Version: version,
		Scions:  make(map[ids.RefID]*ScionSummary),
		Stubs:   make(map[ids.GlobalRef]*StubSummary),
	}

	// Local.Reach: objects reachable from real local roots.
	fromRoots := h.ReachableFromRoots()

	// Initialize stub summaries from the stub table.
	for _, st := range table.Stubs() {
		localReach := false
		for holder := range h.HoldersOf(st.Target) {
			if _, ok := fromRoots[holder]; ok {
				localReach = true
				break
			}
		}
		sum.Stubs[st.Target] = &StubSummary{
			Target:     st.Target,
			IC:         st.IC,
			LocalReach: localReach,
		}
	}

	// Per-scion reachability: which stubs does each scion lead to?
	self := h.Node()
	for _, sc := range table.Scions() {
		ref := sc.RefID(self)
		reach := h.ReachableFrom(sc.Obj)
		stubTargets := h.RemoteRefsFrom(reach)
		kept := stubTargets[:0]
		for _, tgt := range stubTargets {
			if _, ok := sum.Stubs[tgt]; ok {
				kept = append(kept, tgt)
			}
		}
		_, localReach := fromRoots[sc.Obj]
		sum.Scions[ref] = &ScionSummary{
			Ref:        ref,
			IC:         sc.IC,
			StubsFrom:  append([]ids.GlobalRef(nil), kept...),
			LocalReach: localReach,
		}
		// Invert into ScionsTo.
		for _, tgt := range kept {
			ss := sum.Stubs[tgt]
			ss.ScionsTo = append(ss.ScionsTo, ref)
		}
	}
	// Canonical order for ScionsTo lists.
	for _, ss := range sum.Stubs {
		ids.SortRefIDs(ss.ScionsTo)
	}
	return sum
}

// diffSummaries reports the first difference between two summaries, down to
// nil-versus-empty slices: the engines must agree byte for byte once encoded,
// so the in-memory structures must be indistinguishable too.
func diffSummaries(got, want *Summary) string {
	if got.Node != want.Node || got.Version != want.Version {
		return fmt.Sprintf("header: got (%s,%d) want (%s,%d)", got.Node, got.Version, want.Node, want.Version)
	}
	if len(got.Scions) != len(want.Scions) {
		return fmt.Sprintf("scion count: got %d want %d", len(got.Scions), len(want.Scions))
	}
	for ref, w := range want.Scions {
		g := got.Scions[ref]
		if g == nil {
			return fmt.Sprintf("scion %v missing", ref)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("scion %v: got %+v want %+v", ref, g, w)
		}
	}
	if len(got.Stubs) != len(want.Stubs) {
		return fmt.Sprintf("stub count: got %d want %d", len(got.Stubs), len(want.Stubs))
	}
	for tgt, w := range want.Stubs {
		g := got.Stubs[tgt]
		if g == nil {
			return fmt.Sprintf("stub %v missing", tgt)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("stub %v: got %+v want %+v", tgt, g, w)
		}
	}
	return ""
}

// TestSummarizeMatchesReferenceRandomProcess checks the single-pass engine
// against the per-scion BFS reference on the single-process random corpus.
func TestSummarizeMatchesReferenceRandomProcess(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		h, tb := randomProcess(seed)
		got := Summarize(h, tb, uint64(seed)+1)
		want := summarizeReference(h, tb, uint64(seed)+1)
		if d := diffSummaries(got, want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// materialize builds per-node heaps and reference tables directly from a
// workload topology: a cross-process edge becomes a remote reference plus a
// stub on the holder and a scion on the owner, exactly as the cluster
// harness would install them.
func materialize(t *testing.T, topo *workload.Topology) (map[ids.NodeID]*heap.Heap, map[ids.NodeID]*refs.Table) {
	t.Helper()
	if err := topo.Validate(); err != nil {
		t.Fatalf("topology %s: %v", topo.Name, err)
	}
	heaps := make(map[ids.NodeID]*heap.Heap)
	tables := make(map[ids.NodeID]*refs.Table)
	for _, n := range topo.Nodes() {
		heaps[n] = heap.New(n)
		tables[n] = refs.NewTable(n)
	}
	place := make(map[string]ids.GlobalRef, len(topo.Objects))
	for _, o := range topo.Objects {
		id := heaps[o.Node].Alloc(nil).ID
		place[o.Name] = ids.GlobalRef{Node: o.Node, Obj: id}
		if o.Rooted {
			if err := heaps[o.Node].AddRoot(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range topo.Edges {
		from, to := place[e.From], place[e.To]
		if from.Node == to.Node {
			if err := heaps[from.Node].AddLocalRef(from.Obj, to.Obj); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := heaps[from.Node].AddRemoteRef(from.Obj, to); err != nil {
			t.Fatal(err)
		}
		tables[from.Node].EnsureStub(to)
		tables[to.Node].EnsureScion(from.Node, to.Obj)
	}
	return heaps, tables
}

// TestSummarizeMatchesReferenceWorkloads checks engine-versus-reference
// equivalence on every node of randomized multi-process workload topologies
// and the paper's figure presets.
func TestSummarizeMatchesReferenceWorkloads(t *testing.T) {
	topos := []*workload.Topology{
		workload.Ring(4, 3),
		workload.LiveRing(5, 2),
		workload.Figure1(),
		workload.Figure3(),
		workload.Figure4(),
		workload.AcyclicChain(6),
	}
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 60; seed++ {
		topos = append(topos, workload.RandomGraph(seed, workload.RandomConfig{
			Procs:       2 + rng.Intn(5),
			ObjsPerProc: 1 + rng.Intn(40),
			OutDegree:   rng.Float64() * 4,
			RemoteFrac:  rng.Float64(),
			RootFrac:    rng.Float64() * 0.5,
		}))
	}
	for _, topo := range topos {
		heaps, tables := materialize(t, topo)
		nodes := make([]ids.NodeID, 0, len(heaps))
		for n := range heaps {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			got := Summarize(heaps[n], tables[n], 1)
			want := summarizeReference(heaps[n], tables[n], 1)
			if d := diffSummaries(got, want); d != "" {
				t.Fatalf("topology %s node %s: %s", topo.Name, n, d)
			}
		}
	}
}

// TestSummarizeMatchesReferenceAfterMutation re-checks equivalence after
// structural churn (deletions, root flips, extra edges) on the same heap, so
// the engines stay in lockstep on graphs with dangling references.
func TestSummarizeMatchesReferenceAfterMutation(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		h, tb := randomProcess(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		all := h.IDs()
		for _, id := range all {
			switch rng.Intn(5) {
			case 0:
				h.Delete(id) // leaves dangling local/remote refs behind
			case 1:
				_ = h.AddRoot(id)
			case 2:
				h.RemoveRoot(id)
			}
		}
		got := Summarize(h, tb, 2)
		want := summarizeReference(h, tb, 2)
		if d := diffSummaries(got, want); d != "" {
			t.Fatalf("seed %d after mutation: %s", seed, d)
		}
	}
}

// TestSummarizeMatchesReferenceAfterCollect runs the LGC before summarizing,
// so Summarize reuses the index the sweep compacted, on heaps built directly
// or decoded through Restore by either codec. One mutation kind between the
// collection and the summary must force a rebuild; the summary must equal
// the reference either way.
func TestSummarizeMatchesReferenceAfterCollect(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(h *heap.Heap, rng *rand.Rand, objs []ids.ObjID) error
	}{
		{"none", func(*heap.Heap, *rand.Rand, []ids.ObjID) error { return nil }},
		{"Alloc", func(h *heap.Heap, rng *rand.Rand, objs []ids.ObjID) error {
			return h.AddLocalRef(objs[rng.Intn(len(objs))], h.Alloc(nil).ID)
		}},
		{"AddLocalRef", func(h *heap.Heap, rng *rand.Rand, objs []ids.ObjID) error {
			return h.AddLocalRef(objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))])
		}},
		{"RemoveRemoteRef", func(h *heap.Heap, _ *rand.Rand, objs []ids.ObjID) error {
			for _, id := range objs {
				if rs := h.Get(id).Remotes; len(rs) > 0 {
					return h.RemoveRemoteRef(id, rs[0])
				}
			}
			return nil
		}},
		{"AddRoot", func(h *heap.Heap, rng *rand.Rand, objs []ids.ObjID) error {
			return h.AddRoot(objs[rng.Intn(len(objs))])
		}},
		{"RemoveRoot", func(h *heap.Heap, _ *rand.Rand, _ []ids.ObjID) error {
			if roots := h.Roots(); len(roots) > 0 {
				h.RemoveRoot(roots[0])
			}
			return nil
		}},
		{"Delete", func(h *heap.Heap, rng *rand.Rand, objs []ids.ObjID) error {
			h.Delete(objs[rng.Intn(len(objs))])
			return nil
		}},
	}
	for seed := int64(0); seed < 150; seed++ {
		h, tb := randomProcess(seed)
		if k := int(seed % 3); k > 0 {
			c := codecs()[k-1]
			data, err := c.Encode(h)
			if err != nil {
				t.Fatal(err)
			}
			if h, err = c.Decode(data); err != nil {
				t.Fatal(err)
			}
		}
		lgc.New(h, tb).Collect()
		if !h.Index().Equal(h.BuildIndex()) {
			t.Fatalf("seed %d: cached index differs from a rebuild after Collect", seed)
		}
		objs := h.IDs()
		if len(objs) == 0 {
			continue
		}
		m := mutations[int(seed)%len(mutations)]
		rng := rand.New(rand.NewSource(seed))
		if err := m.mutate(h, rng, objs); err != nil {
			t.Fatal(err)
		}
		got := Summarize(h, tb, 3)
		want := summarizeReference(h, tb, 3)
		if d := diffSummaries(got, want); d != "" {
			t.Fatalf("seed %d after Collect and %s: %s", seed, m.name, d)
		}
	}
}
