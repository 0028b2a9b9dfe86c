package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dgc"
)

// The heap workload: GC rounds over large live heaps. Every node holds a
// seeded random graph (a random spanning forest from a few roots, so every
// object is live, plus as many random extra edges) with a small share of
// remote edges. Each round every node allocates a chunk of local garbage,
// rewires some extra edges and makes a few in-process invocations whose
// exported references the callee stores in place of older ones; then one
// GCRound runs. The heaps are built with direct Mutator calls plus
// Cluster.Connect, because materialising a topology this size is slow.
const (
	heapObjs        = 10000 // objects per node
	heapRoots       = 200   // rooted objects per node
	heapRemote      = 200   // remote edges per node
	heapGarbage     = 256   // garbage objects per node per round
	heapRewire      = 128   // extra edges rewired per node per round
	heapInvokes     = 4     // invocations per node per round
	heapInvokeArgs  = 4     // references exported per invocation
	heapInboxCap    = 16    // remote references an inbox keeps
	heapRounds      = 12    // timed rounds per episode
	heapWarmup      = 2     // rounds before timing
	heapLiveEvery   = 10    // rounds between ground-truth safety checks
	heapVariants    = 1     // one large graph per pass
	heapStoreMethod = "bench-replace"
)

// heapNode is the generator's view of one node's graph.
type heapNode struct {
	node  *dgc.Node
	objs  []dgc.ObjID
	extra [][2]dgc.ObjID // rewirable local edges
	inbox dgc.GlobalRef
}

// replaceMethod stores the exported references in the invoked object and
// drops its oldest remote references beyond heapInboxCap.
func replaceMethod(m dgc.Mutator, self dgc.ObjID, args []dgc.GlobalRef) []dgc.GlobalRef {
	for _, a := range args {
		// The callee imported every argument, so Store cannot fail on a
		// held reference; a failure would surface as unswept scions.
		_ = m.Store(self, a)
	}
	var remote []dgc.GlobalRef
	for _, r := range m.Refs(self) {
		if r.Node != m.Node() {
			remote = append(remote, r)
		}
	}
	for i := 0; i < len(remote)-heapInboxCap; i++ {
		_ = m.Drop(self, remote[i])
	}
	return nil
}

// buildHeaps makes every node's graph and the remote edges between them.
func buildHeaps(c *dgc.Cluster, rng *rand.Rand) []*heapNode {
	nodes := c.Nodes()
	hs := make([]*heapNode, len(nodes))
	for i, n := range nodes {
		h := &heapNode{node: n}
		hs[i] = h
		n.RegisterMethod(heapStoreMethod, replaceMethod)
		var err error
		n.With(func(m dgc.Mutator) {
			h.objs = make([]dgc.ObjID, heapObjs)
			for k := range h.objs {
				h.objs[k] = m.Alloc(nil)
				if k < heapRoots {
					err = firstErr(err, m.Root(h.objs[k]))
				} else {
					err = firstErr(err, m.Link(h.objs[rng.Intn(k)], h.objs[k]))
				}
			}
			h.extra = make([][2]dgc.ObjID, heapObjs)
			for k := range h.extra {
				e := [2]dgc.ObjID{h.objs[rng.Intn(heapObjs)], h.objs[rng.Intn(heapObjs)]}
				h.extra[k] = e
				err = firstErr(err, m.Link(e[0], e[1]))
			}
			inbox := m.Alloc(nil)
			err = firstErr(err, m.Root(inbox))
			h.inbox = m.GlobalRef(inbox)
		})
		if err != nil {
			panic(fmt.Sprintf("dgcbench: build %s: %v", n.ID(), err))
		}
	}
	for i, h := range hs {
		for k := 0; k < heapRemote; k++ {
			j := (i + 1 + rng.Intn(len(hs)-1)) % len(hs)
			to := hs[j]
			if err := c.Connect(h.node.ID(), h.objs[rng.Intn(heapObjs)], to.node.ID(), to.objs[rng.Intn(heapObjs)]); err != nil {
				panic(fmt.Sprintf("dgcbench: remote edge: %v", err))
			}
		}
		for j, to := range hs {
			if j != i {
				if err := c.Connect(h.node.ID(), h.objs[0], to.node.ID(), to.inbox.Obj); err != nil {
					panic(fmt.Sprintf("dgcbench: inbox edge: %v", err))
				}
			}
		}
	}
	return hs
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// churn performs one round of mutator work on every node and returns each
// node's new garbage.
func churn(hs []*heapNode, rng *rand.Rand, r *rounder, parent int, cb dgc.ReplyFunc) ([]dgc.GlobalRef, error) {
	var garbage []dgc.GlobalRef
	for i, h := range hs {
		var err error
		h.node.With(func(m dgc.Mutator) {
			prev := m.Alloc(nil)
			garbage = append(garbage, m.GlobalRef(prev))
			for k := 1; k < heapGarbage; k++ {
				o := m.Alloc(nil)
				err = firstErr(err, m.Link(prev, o))
				garbage = append(garbage, m.GlobalRef(o))
				prev = o
			}
			for k := 0; k < heapRewire; k++ {
				e := &h.extra[rng.Intn(len(h.extra))]
				err = firstErr(err, m.Unlink(e[0], e[1]))
				e[1] = h.objs[rng.Intn(heapObjs)]
				err = firstErr(err, m.Link(e[0], e[1]))
			}
		})
		if err != nil {
			return nil, err
		}
		for k := 0; k < heapInvokes; k++ {
			to := hs[(i+1+k)%len(hs)]
			args := make([]dgc.GlobalRef, heapInvokeArgs)
			for a := range args {
				args[a] = dgc.GlobalRef{Node: h.node.ID(), Obj: h.objs[rng.Intn(heapObjs)]}
			}
			if err := h.node.Invoke(to.inbox, heapStoreMethod, args, cb); err != nil {
				return nil, err
			}
		}
	}
	r.settle("heap.churn.settle", parent)
	return garbage, nil
}

func heapEpisode(seed int64, tr *tracer, workers int, mem *memSampler) simResult {
	var res simResult
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	c := newSimCluster(seed)
	hs := buildHeaps(c, rng)
	r := newRounder(c, tr, workers)
	replies, failedCalls := 0, 0
	cb := func(_ dgc.Mutator, rep dgc.Reply) {
		replies++
		if !rep.OK {
			failedCalls++
		}
	}
	for i := 0; i < heapWarmup; i++ {
		if _, err := churn(hs, rng, r, -1, cb); err != nil {
			res.violations = append(res.violations, fmt.Sprintf("warm-up churn: %v", err))
			return res
		}
		r.round()
	}
	res.setup = time.Since(start)
	mem.sampleLive()

	type chunk struct {
		objs  []dgc.GlobalRef
		round int
	}
	var pending []chunk
	var sweptRounds []int
	before := readCounts(c)
	for round := 0; round < heapRounds; round++ {
		t := time.Now()
		ci := tr.begin("heap.churn", r.group+1, -1)
		garbage, err := churn(hs, rng, r, ci, cb)
		tr.end(ci)
		res.mutate = append(res.mutate, time.Since(t))
		if err != nil {
			res.violations = append(res.violations, fmt.Sprintf("churn: %v", err))
			return res
		}
		for k := 0; k < len(garbage); k += heapGarbage {
			pending = append(pending, chunk{objs: garbage[k : k+heapGarbage], round: round})
			res.created++
		}
		var live map[dgc.GlobalRef]struct{}
		if round%heapLiveEvery == 0 {
			live = c.GlobalLive()
			runtime.GC() // the snapshot's heap clones are not the round's garbage
		}
		a := mem.mallocs()
		res.rounds = append(res.rounds, r.round())
		res.allocs += mem.mallocs() - a
		if live != nil {
			res.violations = append(res.violations, liveViolations(c, live)...)
			runtime.GC() // nor are the check's
		}
		kept := pending[:0]
		for _, p := range pending {
			gone := true
			for _, ok := range existing(c, p.objs) {
				gone = gone && !ok
			}
			switch {
			case gone:
				res.swept = append(res.swept, sweptSample{latency: res.rounds[p.round:].sum(), rounds: round - p.round + 1})
				sweptRounds = append(sweptRounds, round-p.round+1)
			case round > p.round:
				res.unswept++ // still present one round after its round
			default:
				kept = append(kept, p)
			}
		}
		pending = kept
	}
	res.unswept += len(pending)
	res.counts = readCounts(c).minus(before)
	mem.sampleLive()
	if failedCalls > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d of %d churn invocations failed", failedCalls, replies))
	}
	res.fingerprint = fmt.Sprintf("%+v swept-rounds=%v unswept=%d replies=%d", res.counts, sweptRounds, res.unswept, replies)
	return res
}

// liveViolations lists objects of the ground-truth live set that are gone.
// It is Cluster.LiveViolations with one heap clone per node instead of one
// per reference, which at this heap size would take minutes.
func liveViolations(c *dgc.Cluster, live map[dgc.GlobalRef]struct{}) []string {
	var out []string
	for _, n := range c.Nodes() {
		h := n.CloneHeap()
		for ref := range live {
			if ref.Node == n.ID() && !h.Contains(ref.Obj) {
				out = append(out, fmt.Sprintf("live object %v was reclaimed", ref))
			}
		}
	}
	return out
}

func heapUntraced(cfg runConfig, rep *report) {
	run := runSim(heapEpisode, cfg, nil, 0, heapVariants, true, rep)
	reportSimEndToEnd(run, rep)
}

func heapTraced(cfg runConfig, rep *report, tr *tracer) {
	simTraced(heapEpisode, cfg, rep, tr, heapVariants)
}
