package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"dgc"
	"dgc/internal/workload"
)

// The cycles workload: garbage-to-swept latency of distributed cycles. A
// rooted ring through every node stays live as background, so its scions are
// perpetual futile detection candidates. Each round adds one garbage
// structure, alternating a generalised Figure-3 ring and a small web of
// overlapping cycles, then runs one GCRound; after the last arrival rounds
// continue until everything is swept or the drain budget runs out.
const (
	cyclesStructures = 120 // garbage structures per episode
	cyclesWarmup     = 3   // background-only rounds before timing
	cyclesDrain      = 60  // rounds allowed after the last arrival
	cyclesLiveEvery  = 16  // rounds between ground-truth safety checks
	cyclesVariants   = 8   // input variants per pass

	// cyclesWorkers is the GCRound worker count of the end-to-end run. Its
	// rounds are about 2 ms of short phases, and on a 2-CPU host the
	// default pool was no faster than one worker but doubled the
	// run-to-run spread: a phase waits for its slowest worker whenever
	// another process takes a CPU. The traced run still compares the two
	// (cluster.pool_speedup).
	cyclesWorkers = 1
)

// cyclesInputs generates one variant's structures from its seed. Ring sizes
// follow a fixed schedule (2..8 nodes, 1..3 objects per node) in seeded
// order; each web is two cycles joined by a chord, in a seeded layout.
// Fixed sizes keep the seed from changing how much garbage there is, only
// where; denser webs made the per-object counts depend on the seed far more
// than the bounds allow, and some of them stall.
func cyclesInputs(seed int64) []*dgc.Topology {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dgc.Topology, 0, cyclesStructures)
	for i := 0; i < cyclesStructures/2; i++ {
		out = append(out, dgc.Ring(2+i%(simNodes-1), 1+(i/(simNodes-1))%3))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	rings := out
	out = make([]*dgc.Topology, 0, cyclesStructures)
	for _, r := range rings {
		out = append(out, r, workload.WebGraph(rng.Int63(), simNodes, 2, 1))
	}
	return out
}

func cyclesEpisode(seed int64, tr *tracer, workers int, mem *memSampler) simResult {
	var res simResult
	start := time.Now()
	inputs := cyclesInputs(seed)
	c := newSimCluster(seed)
	bgRefs, err := c.Materialize(dgc.LiveRing(simNodes, 2), dgc.Config{})
	if err != nil {
		panic(fmt.Sprintf("dgcbench: background ring: %v", err))
	}
	var background []dgc.GlobalRef
	for _, o := range dgc.LiveRing(simNodes, 2).Objects {
		background = append(background, bgRefs[o.Name])
	}
	r := newRounder(c, tr, workers)
	for i := 0; i < cyclesWarmup; i++ {
		r.round()
	}
	res.setup = time.Since(start)
	mem.sampleLive()

	type pending struct {
		objs  []dgc.GlobalRef
		round int
	}
	var inflight []pending
	var sweptRounds []string
	before := readCounts(c)
	for round := 0; ; round++ {
		if round < len(inputs) {
			t := time.Now()
			refs, err := c.Materialize(inputs[round], dgc.Config{})
			res.mutate = append(res.mutate, time.Since(t))
			if err != nil {
				panic(fmt.Sprintf("dgcbench: structure %d: %v", round, err))
			}
			p := pending{round: len(res.rounds)}
			for _, o := range inputs[round].Objects {
				p.objs = append(p.objs, refs[o.Name])
			}
			inflight = append(inflight, p)
			res.created++
		} else {
			res.mutate = append(res.mutate, 0)
		}
		var live map[dgc.GlobalRef]struct{}
		if round%cyclesLiveEvery == 0 {
			live = c.GlobalLive()
			runtime.GC() // the snapshot's heap clones are not the round's garbage
		}
		a := mem.mallocs()
		d := r.round()
		res.allocs += mem.mallocs() - a
		res.rounds = append(res.rounds, d)
		if live != nil {
			if v := c.LiveViolations(live); len(v) > 0 {
				res.violations = append(res.violations, fmt.Sprintf("round %d reclaimed live objects %v", round, v))
			}
			runtime.GC() // nor are the check's
		}
		kept := inflight[:0]
		for _, p := range inflight {
			gone := true
			for _, ok := range existing(c, p.objs) {
				gone = gone && !ok
			}
			if !gone {
				kept = append(kept, p)
				continue
			}
			res.swept = append(res.swept, sweptSample{
				latency: res.rounds[p.round:].sum(),
				rounds:  len(res.rounds) - p.round,
			})
			sweptRounds = append(sweptRounds, fmt.Sprint(len(res.rounds)-p.round))
		}
		inflight = kept
		if round >= len(inputs)-1 && (len(inflight) == 0 || round-len(inputs) >= cyclesDrain) {
			break
		}
	}
	res.unswept = len(inflight)
	res.counts = readCounts(c).minus(before)
	mem.sampleLive()
	for i, ok := range existing(c, background) {
		if !ok {
			res.violations = append(res.violations, fmt.Sprintf("live background object %v was reclaimed", background[i]))
		}
	}
	res.fingerprint = fmt.Sprintf("%+v swept-rounds=%s unswept=%d", res.counts, strings.Join(sweptRounds, ","), res.unswept)
	return res
}

func cyclesUntraced(cfg runConfig, rep *report) {
	run := runSim(cyclesEpisode, cfg, nil, cyclesWorkers, cyclesVariants, true, rep)
	reportSimEndToEnd(run, rep)
}

func cyclesTraced(cfg runConfig, rep *report, tr *tracer) {
	simTraced(cyclesEpisode, cfg, rep, tr, cyclesVariants)
}
