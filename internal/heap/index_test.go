package heap

import (
	"math/rand"
	"slices"
	"testing"

	"dgc/internal/ids"
)

func TestGenAdvancesOnEveryStructuralChange(t *testing.T) {
	h := New("P1")
	last := h.Gen()
	step := func(what string, fn func()) {
		t.Helper()
		fn()
		if h.Gen() <= last {
			t.Fatalf("%s did not advance gen (still %d)", what, h.Gen())
		}
		last = h.Gen()
	}
	var a, b *Object
	step("Alloc", func() { a = h.Alloc(nil) })
	step("Alloc b", func() { b = h.Alloc(nil) })
	step("AddRoot", func() {
		if err := h.AddRoot(a.ID); err != nil {
			t.Fatal(err)
		}
	})
	step("AddLocalRef", func() {
		if err := h.AddLocalRef(a.ID, b.ID); err != nil {
			t.Fatal(err)
		}
	})
	step("AddRemoteRef", func() {
		if err := h.AddRemoteRef(a.ID, ids.GlobalRef{Node: "P2", Obj: 1}); err != nil {
			t.Fatal(err)
		}
	})
	step("SetPayload", func() {
		if err := h.SetPayload(b.ID, []byte{1}); err != nil {
			t.Fatal(err)
		}
	})
	step("RemoveRemoteRef", func() {
		if err := h.RemoveRemoteRef(a.ID, ids.GlobalRef{Node: "P2", Obj: 1}); err != nil {
			t.Fatal(err)
		}
	})
	step("RemoveLocalRef", func() {
		if err := h.RemoveLocalRef(a.ID, b.ID); err != nil {
			t.Fatal(err)
		}
	})
	step("RemoveRoot", func() { h.RemoveRoot(a.ID) })
	step("Delete", func() { h.Delete(b.ID) })

	// No-op operations must NOT advance the epoch: a cache keyed on Gen
	// would otherwise be invalidated for free.
	for name, fn := range map[string]func(){
		"Delete missing":     func() { h.Delete(999) },
		"RemoveRoot missing": func() { h.RemoveRoot(999) },
	} {
		fn()
		if h.Gen() != last {
			t.Fatalf("%s advanced gen", name)
		}
	}
}

func TestReachableFromResultSurvivesLaterTraversals(t *testing.T) {
	h := New("P1")
	a, b := h.Alloc(nil), h.Alloc(nil)
	if err := h.AddLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	set := h.ReachableFrom(a.ID)
	_ = h.ReachableFrom(b.ID) // a later traversal must not touch set
	if len(set) != 2 {
		t.Fatalf("set size %d after later traversal, want 2", len(set))
	}
}

func buildIndexedHeap(t *testing.T) (*Heap, [4]ids.ObjID) {
	t.Helper()
	h := New("P1")
	var o [4]ids.ObjID
	for i := range o {
		o[i] = h.Alloc(nil).ID
	}
	// 0 <-> 1 form an SCC; 1 -> 2; 3 isolated. 0 and 2 hold remote refs.
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}} {
		if err := h.AddLocalRef(o[e[0]], o[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddRemoteRef(o[0], ids.GlobalRef{Node: "P2", Obj: 9}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRemoteRef(o[2], ids.GlobalRef{Node: "P2", Obj: 9}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRemoteRef(o[2], ids.GlobalRef{Node: "P3", Obj: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRoot(o[3]); err != nil {
		t.Fatal(err)
	}
	return h, o
}

func TestIndexHoldersMatchHoldersOf(t *testing.T) {
	h, _ := buildIndexedHeap(t)
	ix := h.BuildIndex()
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for _, tgt := range ix.Targets() {
		want := h.HoldersOf(tgt)
		t32, ok := ix.TargetPos(tgt)
		if !ok {
			t.Fatalf("target %v not found in Targets", tgt)
		}
		got := ix.Holders(t32)
		if len(got) != len(want) {
			t.Fatalf("target %v: %d holders via index, %d via scan", tgt, len(got), len(want))
		}
		for _, hp := range got {
			if _, ok := want[ix.ids[hp]]; !ok {
				t.Fatalf("target %v: index holder %d not in scan set", tgt, ix.ids[hp])
			}
		}
	}
	if _, ok := ix.TargetPos(ids.GlobalRef{Node: "P9", Obj: 1}); ok {
		t.Fatal("unheld target found")
	}
}

func TestIndexSCCAndCondensationOrder(t *testing.T) {
	h, o := buildIndexedHeap(t)
	ix := h.BuildIndex()
	comp, ncomp := ix.SCC()
	if ncomp != 3 {
		t.Fatalf("ncomp = %d, want 3 ({0,1}, {2}, {3})", ncomp)
	}
	p0, _ := ix.Pos(o[0])
	p1, _ := ix.Pos(o[1])
	p2, _ := ix.Pos(o[2])
	if comp[p0] != comp[p1] {
		t.Fatal("cycle members in different components")
	}
	if comp[p2] == comp[p0] {
		t.Fatal("chain target merged into the cycle component")
	}
	// Completion order: every condensation edge u->v has comp[u] > comp[v].
	for v := range ix.ids {
		for _, w := range ix.succ(int32(v)) {
			if comp[v] != comp[w] && comp[v] <= comp[w] {
				t.Fatalf("edge %d->%d violates reverse-topological component ids", v, w)
			}
		}
	}
	off, to := ix.Condense(comp, ncomp)
	for c := int32(0); c < ncomp; c++ {
		for _, d := range to[off[c]:off[c+1]] {
			if c == d {
				t.Fatalf("self edge in condensation at %d", c)
			}
		}
	}
}

func TestIndexRootFlags(t *testing.T) {
	h, o := buildIndexedHeap(t)
	ix := h.BuildIndex()
	reach := ix.RootFlags()
	want := h.ReachableFromRoots()
	for i, id := range ix.ids {
		if _, ok := want[id]; ok != reach[i] {
			t.Fatalf("RootFlags[%d] (obj %d) = %v, scan says %v", i, id, reach[i], ok)
		}
	}
	_ = o
}

// randomIndexedHeap builds a seeded random heap with local and remote edges,
// roots, an object holding one remote ref twice, and dangling local refs to
// deleted objects, sometimes so many that the surviving ids are sparse. With restore set it comes out of Restore, objects
// shuffled, so the id order is rebuilt by the sort Restore does.
func randomIndexedHeap(t *testing.T, rng *rand.Rand, restore bool) *Heap {
	t.Helper()
	h := New("P1")
	n := 2 + rng.Intn(40)
	objs := make([]ids.ObjID, n)
	for i := range objs {
		objs[i] = h.Alloc(nil).ID
	}
	for i := 0; i < 2*n; i++ {
		mustRef(t, h, objs[rng.Intn(n)], objs[rng.Intn(n)])
	}
	for i := 0; i < n/2; i++ {
		mustRemote(t, h, objs[rng.Intn(n)], ids.GlobalRef{Node: "P2", Obj: ids.ObjID(rng.Intn(8))})
	}
	twice := ids.GlobalRef{Node: "P3", Obj: 1}
	mustRemote(t, h, objs[0], twice)
	mustRemote(t, h, objs[0], twice)
	for i := 0; i < n/4+1; i++ {
		if err := h.AddRoot(objs[rng.Intn(n)]); err != nil {
			t.Fatal(err)
		}
	}
	deletes := n / 5
	if rng.Intn(4) == 0 {
		deletes = 4 * n // sparse ids: most objects gone
	}
	for i := 0; i < deletes; i++ {
		h.Delete(objs[1+rng.Intn(n-1)]) // leaves dangling refs behind
	}
	if !restore {
		return h
	}
	var all []*Object
	h.ForEach(func(o *Object) { all = append(all, o) })
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	r, err := Restore(h.Node(), all, h.Roots(), h.NextID())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkIndexEqualsRebuild fails unless ix matches a fresh build of the heap,
// SCC output included.
func checkIndexEqualsRebuild(t *testing.T, what string, h *Heap, ix *Index) {
	t.Helper()
	fresh := h.BuildIndex()
	if !ix.Equal(fresh) {
		t.Fatalf("%s: index %+v, rebuild %+v", what, ix, fresh)
	}
	comp, ncomp := ix.SCC()
	wantComp, wantN := fresh.SCC()
	if ncomp != wantN || !slices.Equal(comp, wantComp) {
		t.Fatalf("%s: SCC %v (%d), rebuild %v (%d)", what, comp, ncomp, wantComp, wantN)
	}
}

// TestIndexSweepMatchesRebuildProperty checks that sweeping compacts the
// index into exactly what BuildIndex returns for the swept heap, on random
// heaps (fresh or restored) and random live sets, including sets that are
// not closed under references, and again after further churn.
func TestIndexSweepMatchesRebuildProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomIndexedHeap(t, rng, seed%2 == 1)
		for round := 0; round < 2; round++ {
			ix := h.Index()
			checkIndexEqualsRebuild(t, "before sweep", h, ix)
			fromRoots := make([]bool, ix.Len())
			ix.Mark(fromRoots, h.Roots()...)
			want := h.ReachableFromRoots()
			for p, id := range ix.ids {
				if _, ok := want[id]; ok != fromRoots[p] {
					t.Fatalf("seed %d: Mark says %d reachable=%v, map walk %v", seed, id, fromRoots[p], ok)
				}
			}
			live := make([]bool, ix.Len())
			if rng.Intn(2) == 0 {
				for i := range live {
					live[i] = rng.Intn(3) > 0
				}
			} else {
				ix.Mark(live, h.Roots()...)
			}
			before := h.Len()
			swept := ix.Sweep(live)
			if h.Len() != before-swept || ix.Len() != h.Len() {
				t.Fatalf("seed %d: swept %d of %d, heap has %d, index %d", seed, swept, before, h.Len(), ix.Len())
			}
			if h.Index() != ix {
				t.Fatalf("seed %d: sweep did not cache the compacted index", seed)
			}
			checkIndexEqualsRebuild(t, "after sweep", h, ix)
			if !slices.Equal(h.IDs(), ix.ids) {
				t.Fatalf("seed %d: IDs %v, index ids %v", seed, h.IDs(), ix.ids)
			}
			// Churn before the next round.
			for i := 0; i < 3 && h.Len() > 0; i++ {
				all := h.IDs()
				o := h.Alloc(nil)
				mustRef(t, h, all[rng.Intn(len(all))], o.ID)
				h.Delete(all[rng.Intn(len(all))])
			}
		}
	}
}

// TestIndexCacheInvalidatedByEveryMutation checks that every structural
// mutation forces Index to rebuild, and that a clone starts uncached.
func TestIndexCacheInvalidatedByEveryMutation(t *testing.T) {
	remote := ids.GlobalRef{Node: "P2", Obj: 9}
	mutations := map[string]func(h *Heap, o [4]ids.ObjID) error{
		"Alloc":           func(h *Heap, _ [4]ids.ObjID) error { h.Alloc(nil); return nil },
		"Delete":          func(h *Heap, o [4]ids.ObjID) error { h.Delete(o[2]); return nil },
		"AddLocalRef":     func(h *Heap, o [4]ids.ObjID) error { return h.AddLocalRef(o[3], o[0]) },
		"RemoveLocalRef":  func(h *Heap, o [4]ids.ObjID) error { return h.RemoveLocalRef(o[1], o[2]) },
		"AddRemoteRef":    func(h *Heap, o [4]ids.ObjID) error { return h.AddRemoteRef(o[3], remote) },
		"RemoveRemoteRef": func(h *Heap, o [4]ids.ObjID) error { return h.RemoveRemoteRef(o[0], remote) },
		"AddRoot":         func(h *Heap, o [4]ids.ObjID) error { return h.AddRoot(o[0]) },
		"RemoveRoot":      func(h *Heap, o [4]ids.ObjID) error { h.RemoveRoot(o[3]); return nil },
		"SetPayload":      func(h *Heap, o [4]ids.ObjID) error { return h.SetPayload(o[1], []byte{1}) },
	}
	for name, mutate := range mutations {
		h, o := buildIndexedHeap(t)
		cached := h.Index()
		if h.Index() != cached {
			t.Fatalf("%s: Index rebuilt an unchanged heap", name)
		}
		if c := h.Clone(); c.ix != nil {
			t.Fatalf("%s: clone shares the cached index", name)
		}
		if err := mutate(h, o); err != nil {
			t.Fatal(err)
		}
		if h.Index() == cached {
			t.Fatalf("%s: Index reused the index of an older epoch", name)
		}
		checkIndexEqualsRebuild(t, name, h, h.Index())
	}
}
