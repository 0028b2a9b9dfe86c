package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dgc/internal/cluster"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/refs"
	"dgc/internal/snapshot"
	"dgc/internal/workload"
)

// BuildSummarizeHeap constructs the summarization stress graph shared by
// BenchmarkSummarize, the dgc-bench summarize experiment and the
// summarizer equivalence tests: `objects` objects on one process with a
// spine chain (so scions near the head reach almost the whole heap), one
// extra random edge per object, a remote reference every 32 objects (the
// stub population) and `scions` incoming references spread evenly across
// the heap. Deterministic for a given (objects, scions).
func BuildSummarizeHeap(objects, scions int) (*heap.Heap, *refs.Table) {
	rng := rand.New(rand.NewSource(42))
	h := heap.New("P1")
	tb := refs.NewTable("P1")

	objs := make([]ids.ObjID, objects)
	for i := range objs {
		objs[i] = h.Alloc(nil).ID
	}
	// Spine: object i -> i+1, making per-scion reachability deep.
	for i := 1; i < objects; i++ {
		if err := h.AddLocalRef(objs[i-1], objs[i]); err != nil {
			panic(err)
		}
	}
	// One extra random edge per object (cycles included).
	for i := 0; i < objects; i++ {
		if err := h.AddLocalRef(objs[rng.Intn(objects)], objs[rng.Intn(objects)]); err != nil {
			panic(err)
		}
	}
	// Remote references: one stub-holding object every 32, across 4 peers.
	peers := []ids.NodeID{"P2", "P3", "P4", "P5"}
	for i := 0; i < objects; i += 32 {
		tgt := ids.GlobalRef{Node: peers[rng.Intn(len(peers))], Obj: ids.ObjID(rng.Intn(64))}
		if err := h.AddRemoteRef(objs[i], tgt); err != nil {
			panic(err)
		}
		tb.EnsureStub(tgt)
	}
	// Scions spread evenly over the heap from 3 source processes.
	srcs := []ids.NodeID{"P2", "P3", "P4"}
	if scions > 0 {
		stride := objects / scions
		if stride == 0 {
			stride = 1
		}
		for s := 0; s < scions; s++ {
			tb.EnsureScion(srcs[s%len(srcs)], objs[(s*stride)%objects])
		}
	}
	// A small rooted region at the head of the spine.
	if err := h.AddRoot(objs[0]); err != nil {
		panic(err)
	}
	return h, tb
}

// SummarizeRow is one cell of the summarization scaling matrix.
type SummarizeRow struct {
	Objects  int           `json:"objects"`
	Scions   int           `json:"scions"`
	Duration time.Duration `json:"ns"`
}

// SummarizeScale measures graph summarization across a heap-size × scion
// matrix: the cost model the single-pass engine changes from O(S × (V+E))
// to O(V + E × S/64). Each cell reports the best of reps runs. Every run
// first rewrites one payload, advancing the mutation epoch as mutator churn
// does, so it times a cold index build plus summarize rather than a hit on
// the heap's cached index.
func SummarizeScale(objects, scions []int, reps int) ([]SummarizeRow, error) {
	if reps < 1 {
		reps = 1
	}
	var rows []SummarizeRow
	for _, o := range objects {
		for _, s := range scions {
			h, tb := BuildSummarizeHeap(o, s)
			root := h.Roots()[0]
			best := time.Duration(0)
			for r := 0; r < reps; r++ {
				if err := h.SetPayload(root, nil); err != nil {
					return nil, err
				}
				start := time.Now()
				sum := snapshot.Summarize(h, tb, uint64(r+1))
				d := time.Since(start)
				if len(sum.Scions) != tb.NumScions() {
					return nil, fmt.Errorf("experiments: summarize %d/%d: %d scion summaries, want %d",
						o, s, len(sum.Scions), tb.NumScions())
				}
				if best == 0 || d < best {
					best = d
				}
			}
			rows = append(rows, SummarizeRow{Objects: o, Scions: s, Duration: best})
		}
	}
	return rows, nil
}

// SummarizeBaseline returns the recorded timings of the retired per-scion
// BFS engine on the same BuildSummarizeHeap matrix (BenchmarkSummarize at
// the pre-rewrite revision, Intel Xeon @ 2.10 GHz). Kept as data so
// BENCH_summarize.json always carries the before/after comparison the
// single-pass engine is judged against.
func SummarizeBaseline() []SummarizeRow {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	return []SummarizeRow{
		{Objects: 1000, Scions: 4, Duration: ms(1.60)},
		{Objects: 1000, Scions: 64, Duration: ms(16.6)},
		{Objects: 1000, Scions: 512, Duration: ms(124.7)},
		{Objects: 10000, Scions: 4, Duration: ms(50.9)},
		{Objects: 10000, Scions: 64, Duration: ms(257)},
		{Objects: 10000, Scions: 512, Duration: ms(1854.7)},
		{Objects: 100000, Scions: 4, Duration: ms(870)},
		{Objects: 100000, Scions: 64, Duration: ms(5120)},
		{Objects: 100000, Scions: 512, Duration: ms(34400)},
	}
}

// GCRoundRow is one cell of the cluster GC-round scaling measurement.
type GCRoundRow struct {
	Procs   int           `json:"procs"`
	Workers int           `json:"workers"`
	Round   time.Duration `json:"round_ns"`
}

// GCRoundScale measures the wall-clock cost of one fully-settled GC round
// on an n-process live ring with per-node local churn, across a worker-pool
// matrix from the sequential schedule (workers=1) through fixed pool sizes
// to the full pool (workers=0): the scaling curve of the node-parallel
// phases. Pool sizes above the process count are skipped — runPhase clamps
// the pool to the node count, so those cells would duplicate the full-pool
// row.
func GCRoundScale(procs []int, rounds int) ([]GCRoundRow, error) {
	if rounds < 1 {
		rounds = 1
	}
	var rows []GCRoundRow
	for _, p := range procs {
		for _, workers := range []int{1, 2, 4, 8, 0} {
			if workers > p {
				continue
			}
			c := cluster.New(11, node.Config{})
			c.SetWorkers(workers)
			if _, err := c.Materialize(workload.LiveRing(p, 2), node.Config{}); err != nil {
				return nil, err
			}
			// Bulk each node with a rooted local chain so per-node phases
			// have real work to overlap.
			for _, n := range c.Nodes() {
				n.With(func(m node.Mutator) {
					prev := m.Alloc(nil)
					if err := m.Root(prev); err != nil {
						panic(err)
					}
					for i := 1; i < 2000; i++ {
						o := m.Alloc(nil)
						if err := m.Link(prev, o); err != nil {
							panic(err)
						}
						prev = o
					}
				})
			}
			c.GCRound() // warm-up
			best := time.Duration(0)
			for r := 0; r < rounds; r++ {
				// Churn: a short unrooted garbage chain per node, so every
				// round's LGC and summarization do fresh work.
				for _, n := range c.Nodes() {
					n.With(func(m node.Mutator) {
						prev := m.Alloc(nil)
						for i := 0; i < 50; i++ {
							o := m.Alloc(nil)
							if err := m.Link(prev, o); err != nil {
								panic(err)
							}
							prev = o
						}
					})
				}
				start := time.Now()
				c.GCRound()
				d := time.Since(start)
				if best == 0 || d < best {
					best = d
				}
			}
			rows = append(rows, GCRoundRow{Procs: p, Workers: workers, Round: best})
		}
	}
	return rows, nil
}
