package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dgc"
	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

const (
	simNodes        = 8
	journalCapacity = 8192 // the live binaries' default journal
)

// liveConfig configures a node the way the live binaries ship it: an
// 8192-event journal of its own, a metrics set, and aggregated detection
// (batching plus aggregation) set explicitly, because the simulator would
// otherwise pin batching off.
func liveConfig(set *dgc.MetricsSet) dgc.Config {
	return dgc.Config{
		BatchDetection:     dgc.Bool(true),
		AggregateDetection: true,
		Trace:              dgc.NewTraceLog(journalCapacity),
		Metrics:            set,
	}
}

// newSimCluster builds the eight-node in-process cluster P1..P8 with instant
// delivery and no injected faults.
func newSimCluster(seed int64) *dgc.Cluster {
	set := dgc.NewMetricsSet()
	c := dgc.NewCluster(seed, dgc.Config{})
	c.Net.SetMetrics(dgc.NewTransportMetrics(set.Node("fabric")))
	for i := 1; i <= simNodes; i++ {
		c.Add(dgc.NodeID(fmt.Sprintf("P%d", i)), liveConfig(set))
	}
	return c
}

// simCounts are the cluster-wide counters a round moves. Every field is a
// count that a fixed seed reproduces exactly.
type simCounts struct {
	Msgs, Bytes                   uint64
	Swept, LGCRuns                uint64
	Summarizations, CacheHits     uint64
	CDMMsgs, Started, CyclesFound uint64
	RaceDrops, Dedups, Relaunches uint64
	Events                        uint64
}

func readCounts(c *dgc.Cluster) simCounts {
	var s simCounts
	sent, _, _ := c.Net.Counts()
	for _, v := range sent {
		s.Msgs += v
	}
	s.Bytes = c.Net.BytesSent()
	for _, n := range c.Nodes() {
		st := n.Stats()
		s.Swept += st.ObjectsSwept
		s.LGCRuns += st.LGCRuns
		s.Summarizations += st.Summarizations
		s.CacheHits += st.SummaryCacheHits
		s.CDMMsgs += st.CDMMsgsSent
		s.Started += st.Detector.Started
		s.CyclesFound += st.Detector.CyclesFound
		s.RaceDrops += st.CDMsRaceDropped
		s.Dedups += st.CDMsDeduped
		s.Relaunches += st.DetectionRelaunches
		s.Events += n.Journal().Stats().Emitted
	}
	return s
}

func (a simCounts) minus(b simCounts) simCounts {
	return simCounts{
		Msgs: a.Msgs - b.Msgs, Bytes: a.Bytes - b.Bytes,
		Swept: a.Swept - b.Swept, LGCRuns: a.LGCRuns - b.LGCRuns,
		Summarizations: a.Summarizations - b.Summarizations, CacheHits: a.CacheHits - b.CacheHits,
		CDMMsgs: a.CDMMsgs - b.CDMMsgs, Started: a.Started - b.Started, CyclesFound: a.CyclesFound - b.CyclesFound,
		RaceDrops: a.RaceDrops - b.RaceDrops, Dedups: a.Dedups - b.Dedups, Relaunches: a.Relaunches - b.Relaunches,
		Events: a.Events - b.Events,
	}
}

// rounder runs GC rounds. Untraced it calls Cluster.GCRound on the worker
// pool (workers 0 = one per CPU). Traced it drives the same schedule phase by
// phase on one goroutine, in GCRound's sequential order (LGC on every node,
// settle; Summarize + RunDetection per node, settle), which the pool is
// bit-identical to, with a span around every call and every delivered
// message.
type rounder struct {
	c      *dgc.Cluster
	tr     *tracer
	group  uint64
	parent int // span the handler spans nest under (traced runs only)
}

func newRounder(c *dgc.Cluster, tr *tracer, workers int) *rounder {
	c.SetWorkers(workers)
	r := &rounder{c: c, tr: tr, parent: -1}
	if tr != nil {
		for _, n := range c.Nodes() {
			n := n
			c.Net.Endpoint(n.ID()).SetHandler(func(from ids.NodeID, msg wire.Message) []transport.Envelope {
				i := tr.begin(handleNames[msg.Kind()], r.group, r.parent)
				outs := n.HandleMessage(from, msg)
				tr.end(i)
				return outs
			})
		}
	}
	return r
}

// handleNames names the span of one delivered message by its kind.
var handleNames = func() (out [256]string) {
	for i := range out {
		out[i] = "node.handle_us." + wire.Kind(i).String()
	}
	return out
}()

// round runs one GC round and returns its wall time.
func (r *rounder) round() time.Duration {
	start := time.Now()
	if r.tr == nil {
		r.c.GCRound()
		return time.Since(start)
	}
	r.group++
	root := r.tr.begin("round", r.group, -1)
	nodes := r.c.Nodes()
	for _, n := range nodes {
		i := r.tr.begin("lgc.run", r.group, root)
		n.RunLGC()
		r.tr.end(i)
	}
	r.settle("transport.settle", root)
	for _, n := range nodes {
		i := r.tr.begin("snapshot.summarize", r.group, root)
		err := n.Summarize()
		r.tr.end(i)
		if err != nil {
			panic(fmt.Sprintf("dgcbench: summarize %s: %v", n.ID(), err))
		}
		i = r.tr.begin("core.start", r.group, root)
		n.RunDetection()
		r.tr.end(i)
	}
	r.settle("transport.settle", root)
	r.tr.end(root)
	return time.Since(start)
}

// settle pumps the fabric to quiescence under a span of the given name; the
// handler spans nest inside it, so its self time is the fabric's own.
func (r *rounder) settle(name string, parent int) {
	i := r.tr.begin(name, r.group, parent)
	r.parent = i
	r.c.Settle()
	r.parent = -1
	r.tr.end(i)
}

// existing reports, for each reference, whether its object is still
// allocated, asking each owner node once.
func existing(c *dgc.Cluster, refs []dgc.GlobalRef) []bool {
	out := make([]bool, len(refs))
	byNode := make(map[dgc.NodeID][]int)
	for i, r := range refs {
		byNode[r.Node] = append(byNode[r.Node], i)
	}
	for node, idx := range byNode {
		c.Node(node).With(func(m dgc.Mutator) {
			for _, i := range idx {
				out[i] = m.Exists(refs[i].Obj)
			}
		})
	}
	return out
}

// memSampler counts heap allocations and tracks the largest live heap an
// episode adds: HeapInuse right after a forced collection, at the end of the
// episode's set-up and of its timed phase, minus the same figure taken just
// before the episode began. Sampling after a collection makes the figure
// independent of where the collector's cycle happens to be; the subtraction
// leaves out the samples that earlier episodes left in the benchmark.
type memSampler struct {
	base, peak uint64
	ms         runtime.MemStats
}

// startEpisode collects garbage, so the episode starts with no collection
// debt, and takes the baseline the episode's samples are measured from.
func (s *memSampler) startEpisode() {
	runtime.GC()
	runtime.ReadMemStats(&s.ms)
	s.base = s.ms.HeapInuse
}

// mallocs returns the cumulative allocation count.
func (s *memSampler) mallocs() uint64 {
	runtime.ReadMemStats(&s.ms)
	return s.ms.Mallocs
}

// sampleLive collects garbage and records the live heap. Call it only
// outside timed sections.
func (s *memSampler) sampleLive() {
	runtime.GC()
	runtime.ReadMemStats(&s.ms)
	if s.ms.HeapInuse > s.base && s.ms.HeapInuse-s.base > s.peak {
		s.peak = s.ms.HeapInuse - s.base
	}
}

func (s *memSampler) peakMB() float64 { return float64(s.peak) / (1 << 20) }

// sweptSample is one structure's garbage-to-swept latency.
type sweptSample struct {
	latency time.Duration
	rounds  int
}

// simResult is what one cycles or heap episode measured.
type simResult struct {
	setup       time.Duration
	rounds      durations // GCRound wall times
	mutate      durations // generator or churn time per round
	swept       []sweptSample
	created     int // structures or churn chunks made garbage
	unswept     int
	allocs      uint64 // heap allocations inside GCRound
	counts      simCounts
	fingerprint string   // counts and per-structure rounds; a seed repeats it exactly
	violations  []string // failed safety checks
}

// simRun is a sequence of episodes of one configuration.
type simRun struct {
	episodes []simResult
	variants int
	mem      memSampler
}

func (s *simRun) rounds() durations {
	var out durations
	for _, e := range s.episodes {
		out = append(out, e.rounds...)
	}
	return out
}

// simEpisode runs one episode and returns its measurements.
type simEpisode func(seed int64, tr *tracer, workers int, mem *memSampler) simResult

// runSim runs passes over the workload's input variants until the budget
// is spent and, when needTail is set, the round samples support the tail
// percentile. Variant v of every pass builds the same inputs (from
// variantSeed), so its counts must repeat exactly; a mismatch fails the run.
// Whole passes keep the mix of variants in the timings the same from run to
// run.
func runSim(ep simEpisode, cfg runConfig, tr *tracer, workers, variants int, needTail bool, rep *report) *simRun {
	run := &simRun{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.budget || (needTail && !enoughForTail(len(run.rounds()), tailQ)); pass++ {
		for v := 0; v < variants; v++ {
			run.mem.startEpisode()
			e := ep(variantSeed(cfg.seed, v), tr, workers, &run.mem)
			for _, msg := range e.violations {
				rep.check(false, "pass %d variant %d: %s", pass, v, msg)
			}
			if pass > 0 && e.fingerprint != run.episodes[v].fingerprint {
				rep.check(false, "pass %d variant %d counts differ from pass 0 for the same seed: %s vs %s",
					pass, v, e.fingerprint, run.episodes[v].fingerprint)
			}
			run.episodes = append(run.episodes, e)
		}
		if time.Since(start) > 4*cfg.budget+60*time.Second {
			rep.check(false, "passes overran the budget (%d episodes done)", len(run.episodes))
			break
		}
	}
	run.variants = variants
	return run
}

// variantSeed derives the seed of one input variant from the run's seed.
func variantSeed(seed int64, v int) int64 { return seed*1_000_003 + int64(v) }

// fingerprint joins the first pass's per-variant fingerprints.
func (s *simRun) fingerprint() string {
	var fps []string
	for _, e := range s.episodes[:s.variants] {
		fps = append(fps, e.fingerprint)
	}
	return strings.Join(fps, " | ")
}

// reportSimEndToEnd fills the end-to-end metrics from an untraced run.
func reportSimEndToEnd(run *simRun, rep *report) {
	var setups, swept durations
	var mutate time.Duration
	sweptRounds := 0
	var allocs uint64
	var counts simCounts
	rounds := run.rounds()
	for _, e := range run.episodes {
		setups = append(setups, e.setup)
		for _, s := range e.swept {
			swept = append(swept, s.latency)
			sweptRounds += s.rounds
		}
		mutate += e.mutate.sum()
		allocs += e.allocs
		counts = counts.add(e.counts)
		rep.Attempted += int64(e.created)
		rep.Failed += int64(e.unswept)
	}
	rep.set("setup_s", setups.quantile(0.5).Seconds(), len(setups))
	rep.set("op_p50_us", us(rounds.quantile(0.5)), len(rounds))
	rep.set("op_p90_us", us(rounds.quantile(tailQ)), len(rounds))
	rep.setRatio("ops_per_s", ratio{float64(len(rounds)), (rounds.sum() + mutate).Seconds()})
	rep.setRatio("allocs_per_op", ratio{float64(allocs), float64(len(rounds))})
	rep.set("swept_p50_ms", ms(swept.quantile(0.5)), len(swept))
	rep.set("swept_p90_ms", ms(swept.quantile(tailQ)), len(swept))
	rep.setRatio("swept_rounds_mean", ratio{float64(sweptRounds), float64(len(swept))})
	rep.setRatio("msgs_per_swept_obj", ratio{float64(counts.Msgs), float64(counts.Swept)})
	rep.setRatio("bytes_per_swept_obj", ratio{float64(counts.Bytes), float64(counts.Swept)})
	rep.set("peak_heap_mb", run.mem.peakMB(), 0)
	rep.check(enoughForTail(len(rounds), tailQ), "%d rounds leave fewer than %d beyond p%g", len(rounds), minBeyond, 100*tailQ)
	rep.check(enoughForTail(len(swept), tailQ), "%d swept samples leave fewer than %d beyond p%g", len(swept), minBeyond, 100*tailQ)
	rep.Notes["episodes"] = len(run.episodes)
	rep.Notes["fingerprint"] = run.fingerprint()
}

func (a simCounts) add(b simCounts) simCounts {
	return simCounts{
		Msgs: a.Msgs + b.Msgs, Bytes: a.Bytes + b.Bytes,
		Swept: a.Swept + b.Swept, LGCRuns: a.LGCRuns + b.LGCRuns,
		Summarizations: a.Summarizations + b.Summarizations, CacheHits: a.CacheHits + b.CacheHits,
		CDMMsgs: a.CDMMsgs + b.CDMMsgs, Started: a.Started + b.Started, CyclesFound: a.CyclesFound + b.CyclesFound,
		RaceDrops: a.RaceDrops + b.RaceDrops, Dedups: a.Dedups + b.Dedups, Relaunches: a.Relaunches + b.Relaunches,
		Events: a.Events + b.Events,
	}
}

// simTraced is the traced run shared by cycles and heap: an untraced run on
// the default pool, an untraced run on one worker, then the traced run, each
// on a third of the budget and all on the same inputs. The three must
// produce identical counts.
func simTraced(ep simEpisode, cfg runConfig, rep *report, tr *tracer, variants int) {
	third := runConfig{seed: cfg.seed, budget: cfg.budget / 3}
	pool := runSim(ep, third, nil, 0, variants, false, rep)
	one := runSim(ep, third, nil, 1, variants, false, rep)
	traced := runSim(ep, third, tr, 1, variants, false, rep)
	fp := pool.fingerprint()
	rep.check(one.fingerprint() == fp, "one-worker counts differ from the pool's: %s vs %s", one.fingerprint(), fp)
	rep.check(traced.fingerprint() == fp, "traced counts differ from the untraced run's: %s vs %s", traced.fingerprint(), fp)
	rep.Notes["fingerprint"] = fp

	for _, e := range traced.episodes {
		rep.Attempted += int64(e.created)
		rep.Failed += int64(e.unswept)
	}
	poolP50, oneP50 := pool.rounds().quantile(0.5), one.rounds().quantile(0.5)
	rep.setRatio("cluster.pool_speedup", ratio{float64(oneP50), float64(poolP50)})
	rep.Notes["pool_round_p50_us"] = us(poolP50)
	rep.Notes["one_worker_round_p50_us"] = us(oneP50)

	// Overhead compares whole episodes' timed work (rounds plus mutation)
	// at one worker, traced against untraced, per round.
	perRound := func(r *simRun) float64 {
		var t time.Duration
		for _, e := range r.episodes {
			t += e.rounds.sum() + e.mutate.sum()
		}
		return float64(t) / float64(len(r.rounds()))
	}
	rep.Metrics["trace.overhead_pct"] = reported{Value: pctOver(perRound(traced), perRound(one)), Samples: len(traced.rounds())}

	// Counters cover the timed rounds; span-derived figures divide by span
	// counts, which include the traced warm-up rounds.
	var c simCounts
	nRounds := len(traced.rounds())
	for _, e := range traced.episodes {
		c = c.add(e.counts)
	}
	layers := tr.layers()
	perRoundRatio := func(x float64) ratio { return ratio{x, float64(nRounds)} }
	spanRounds := float64(layers["round"].count)
	msPer := func(name string, den float64) ratio {
		return ratio{ms(layers[name].self), den}
	}
	rep.setRatio("lgc.ms_per_run", msPer("lgc.run", float64(layers["lgc.run"].count)))
	rep.setRatio("lgc.ms_per_round", msPer("lgc.run", spanRounds))
	rep.setRatio("lgc.swept_per_run", ratio{float64(c.Swept), float64(c.LGCRuns)})
	rep.setRatio("snapshot.ms_per_run", msPer("snapshot.summarize", float64(layers["snapshot.summarize"].count)))
	rep.setRatio("snapshot.ms_per_round", msPer("snapshot.summarize", spanRounds))
	rep.setRatio("snapshot.cache_hit_frac", ratio{float64(c.CacheHits), float64(c.Summarizations)})
	rep.setRatio("core.start_ms_per_round", msPer("core.start", spanRounds))
	rep.setRatio("transport.fabric_ms_per_round", msPer("transport.settle", spanRounds))
	for _, k := range []string{"NewSetStubs", "CDM", "BatchCDM", "InvokeRequest", "InvokeReply"} {
		l := layers["node.handle_us."+k]
		rep.setRatio("node.handle_us."+k, ratio{us(l.self), float64(l.count)})
	}
	rep.setRatio("node.cdm_msgs_per_round", perRoundRatio(float64(c.CDMMsgs)))
	rep.setRatio("core.detections_per_round", perRoundRatio(float64(c.Started)))
	rep.setRatio("core.race_drops_per_round", perRoundRatio(float64(c.RaceDrops)))
	rep.setRatio("core.dedups_per_round", perRoundRatio(float64(c.Dedups)))
	rep.setRatio("core.relaunches_per_round", perRoundRatio(float64(c.Relaunches)))
	rep.setRatio("core.useful_frac", ratio{float64(c.CyclesFound), float64(c.Started)})
	rep.setRatio("trace.events_per_round", perRoundRatio(float64(c.Events)))
	var churn time.Duration
	for _, e := range traced.episodes {
		churn += e.mutate.sum()
	}
	rep.setRatio("heap.churn_ms_per_round", ratio{ms(churn), float64(nRounds)})
	for _, name := range []string{"heap.mutator_us_per_call", "node.invoke_us_per_call", "transport.send_us_per_msg",
		"transport.rtt_us_per_call", "lgc.reclaim_ms_per_batch", "wire.bytes_per_call", "node.dgc_overhead_pct"} {
		rep.setRatio(name, ratio{})
	}
	rep.Notes["episodes"] = []int{len(pool.episodes), len(one.episodes), len(traced.episodes)}
}
