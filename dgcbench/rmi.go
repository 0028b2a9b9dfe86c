package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dgc"
	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// The rmi workload: the paper's Table 1 pattern over loopback TCP. One
// client in a closed loop calls noop on a server node, exporting rmiArgs
// fresh references per call, and drops them after the reply. Every
// rmiWindow calls the server and then the client run their local collector,
// so the acyclic DGC reclaims the exported references and the tables stay
// bounded.
const (
	rmiArgs        = 10
	rmiWindow      = 100 // calls between reclamation pauses
	rmiWindows     = 30  // windows per episode
	rmiWarmupCalls = 2 * rmiWindow
	rmiCallTimeout = 20 * time.Second
)

// rmiPair is one client/server pair over loopback sockets.
type rmiPair struct {
	client, server *dgc.Node
	cep, sep       *dgc.TCPEndpoint
	ctm, stm       *dgc.TransportMetrics
	holder         dgc.ObjID
	target         dgc.GlobalRef
	dgcOn          bool

	args  []dgc.GlobalRef // the current call's exported references
	cb    dgc.ReplyFunc
	done  chan callDone // buffered 1: one call is outstanding at a time
	abort chan struct{} // closed when an episode overruns

	// Traced runs only: the tracer, the current call's (or pause's) group
	// and root span, which handler spans on the socket goroutines nest under,
	// and the span that sends from the driving goroutine nest under.
	tr         *tracer
	group      atomic.Uint64
	callSpan   atomic.Int64
	sendParent atomic.Int64
	cw, sw     *timedEndpoint
}

type callDone struct {
	ok bool
	at time.Time
}

func newRMIPair(dgcOn bool, tr *tracer) (*rmiPair, error) {
	cep, err := dgc.ListenTCP("client", "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	sep, err := dgc.ListenTCP("server", "127.0.0.1:0", nil)
	if err != nil {
		cep.Close()
		return nil, err
	}
	cep.AddPeer("server", sep.Addr())
	sep.AddPeer("client", cep.Addr())
	set := dgc.NewMetricsSet()
	p := &rmiPair{
		cep: cep, sep: sep, dgcOn: dgcOn, tr: tr,
		ctm:   dgc.NewTransportMetrics(set.Node("client")),
		stm:   dgc.NewTransportMetrics(set.Node("server")),
		args:  make([]dgc.GlobalRef, rmiArgs),
		done:  make(chan callDone, 1),
		abort: make(chan struct{}),
	}
	p.callSpan.Store(-1)
	p.sendParent.Store(-1)
	cep.SetMetrics(p.ctm)
	sep.SetMetrics(p.stm)
	cfg := liveConfig(set)
	cfg.DisableDGC = !dgcOn
	var cEP, sEP transport.Endpoint = cep, sep
	if tr != nil {
		p.cw, p.sw = &timedEndpoint{inner: cep, pair: p}, &timedEndpoint{inner: sep, pair: p}
		cEP, sEP = p.cw, p.sw
	}
	p.client = dgc.NewNode("client", cEP, cfg)
	p.server = dgc.NewNode("server", sEP, cfg)
	p.server.With(func(m dgc.Mutator) {
		obj := m.Alloc(nil)
		err = m.Root(obj)
		p.target = m.GlobalRef(obj)
	})
	p.client.With(func(m dgc.Mutator) {
		p.holder = m.Alloc(nil)
		err = firstErr(err, m.Root(p.holder))
	})
	if err == nil && dgcOn {
		err = firstErr(p.server.EnsureScionFor("client", p.target.Obj), p.client.HoldRemote(p.holder, p.target))
	}
	p.cb = func(m dgc.Mutator, r dgc.Reply) {
		at := time.Now()
		for _, a := range p.args {
			_ = m.Unlink(p.holder, a.Obj) // linked by call; cannot fail
		}
		p.done <- callDone{ok: r.OK, at: at}
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *rmiPair) close() {
	p.cep.Close()
	p.sep.Close()
}

// call makes one remote call and returns its latency, from argument
// allocation to the reply callback.
func (p *rmiPair) call() (time.Duration, time.Time, error) {
	group := p.group.Add(1)
	root := p.tr.begin("rmi.call", group, -1)
	p.callSpan.Store(int64(root))
	start := time.Now()
	var err error
	i := p.tr.begin("heap.mutator", group, root)
	p.client.With(func(m dgc.Mutator) {
		for k := range p.args {
			o := m.Alloc(nil)
			err = firstErr(err, m.Link(p.holder, o))
			p.args[k] = m.GlobalRef(o)
		}
	})
	p.tr.end(i)
	i = p.tr.begin("node.invoke", group, root)
	p.sendParent.Store(int64(i))
	err = firstErr(err, p.client.Invoke(p.target, "noop", p.args, p.cb))
	p.tr.end(i)
	if err != nil {
		return 0, time.Time{}, err
	}
	select {
	case r := <-p.done:
		p.tr.endAt(root, r.at)
		if !r.ok {
			return 0, r.at, fmt.Errorf("call failed")
		}
		return r.at.Sub(start), r.at, nil
	case <-p.abort:
		return 0, time.Time{}, fmt.Errorf("call timed out")
	}
}

// reclaim is the reclamation pause: the server's local collection drops the
// stubs of the imported references and sends its stub set; once the client
// has applied it, the client's local collection sweeps the exported objects.
func (p *rmiPair) reclaim() (int, error) {
	group := p.group.Add(1)
	pause := p.tr.begin("lgc.reclaim", group, -1)
	defer p.tr.end(pause)
	p.callSpan.Store(int64(pause))
	p.sendParent.Store(int64(pause))
	applied := p.client.Stats().StubSetsApplied
	received := p.ctm.MsgsReceived.Value()
	i := p.tr.begin("lgc.run", group, pause)
	p.server.RunLGC()
	p.tr.end(i)
	// Spin rather than sleep: timer granularity added up to a millisecond
	// to some pauses and not others. Stats is a step on the client node,
	// under the lock the handler applying the stub set needs, so it is only
	// polled once the client's endpoint has taken a message in.
	for arrived := false; p.dgcOn; {
		arrived = arrived || p.ctm.MsgsReceived.Value() != received
		if arrived && p.client.Stats().StubSetsApplied != applied {
			break
		}
		select {
		case <-p.abort:
			return 0, fmt.Errorf("server stub set never arrived")
		default:
			runtime.Gosched()
		}
	}
	i = p.tr.begin("lgc.run", group, pause)
	res := p.client.RunLGC()
	p.tr.end(i)
	return res.Swept, nil
}

// rmiResult is what one episode measured.
type rmiResult struct {
	setup       time.Duration
	calls       durations // per-call latency
	windows     durations // per-window wall time, reclamation pause included
	swept       durations // per exported reference: reply to end of its sweep
	sweptObjs   int
	attempted   int
	failed      int
	msgs, bytes uint64
	allocs      uint64
	sends       int64 // messages through the traced endpoints, warm-up included
	fingerprint string
	violations  []string
}

func (p *rmiPair) wireCounts() (msgs, bytes uint64) {
	return p.ctm.MsgsSent.Value() + p.stm.MsgsSent.Value(), p.ctm.BytesSent.Value() + p.stm.BytesSent.Value()
}

// rmiEpisode sets up a pair, warms it up, then runs rmiWindows windows of
// rmiWindow calls, each followed by a reclamation pause.
func rmiEpisode(dgcOn bool, tr *tracer, mem *memSampler) rmiResult {
	var res rmiResult
	mem.startEpisode()
	start := time.Now()
	p, err := newRMIPair(dgcOn, tr)
	if err != nil {
		res.violations = append(res.violations, fmt.Sprintf("setup: %v", err))
		return res
	}
	defer p.close()
	watchdog := time.AfterFunc(rmiCallTimeout, func() { close(p.abort) })
	defer watchdog.Stop()
	for i := 0; i < rmiWarmupCalls; i++ {
		if _, _, err := p.call(); err != nil {
			res.violations = append(res.violations, fmt.Sprintf("warm-up call: %v", err))
			return res
		}
	}
	if _, err := p.reclaim(); err != nil {
		res.violations = append(res.violations, fmt.Sprintf("warm-up reclaim: %v", err))
		return res
	}
	baseObjs, baseScions := p.client.NumObjects(), p.client.NumScions()
	res.setup = time.Since(start)
	mem.sampleLive()

	msgs0, bytes0 := p.wireCounts()
	allocs0 := mem.mallocs()
	replied := make([]time.Time, 0, rmiWindow)
	for w := 0; w < rmiWindows; w++ {
		wstart := time.Now()
		replied = replied[:0]
		for k := 0; k < rmiWindow; k++ {
			res.attempted++
			d, at, err := p.call()
			if err != nil {
				res.failed++
				res.violations = append(res.violations, fmt.Sprintf("call: %v", err))
				return res
			}
			res.calls = append(res.calls, d)
			replied = append(replied, at)
		}
		swept, err := p.reclaim()
		done := time.Now()
		res.windows = append(res.windows, done.Sub(wstart))
		if err != nil {
			res.violations = append(res.violations, fmt.Sprintf("reclaim: %v", err))
			return res
		}
		if swept != rmiArgs*rmiWindow {
			res.violations = append(res.violations, fmt.Sprintf("window %d swept %d objects, want %d", w, swept, rmiArgs*rmiWindow))
		}
		res.sweptObjs += swept
		for _, at := range replied {
			res.swept = append(res.swept, done.Sub(at))
		}
	}
	res.allocs = mem.mallocs() - allocs0
	mem.sampleLive()
	msgs1, bytes1 := p.wireCounts()
	res.msgs, res.bytes = msgs1-msgs0, bytes1-bytes0
	if o, s := p.client.NumObjects(), p.client.NumScions(); o != baseObjs || s != baseScions {
		res.violations = append(res.violations, fmt.Sprintf("client kept %d objects / %d scions after reclamation, baseline %d / %d", o, s, baseObjs, baseScions))
	}
	if p.cw != nil {
		res.sends = p.cw.msgs.Load() + p.sw.msgs.Load()
	}
	res.fingerprint = fmt.Sprintf("msgs=%d bytes=%d swept=%d", res.msgs, res.bytes, res.sweptObjs)
	return res
}

// rmiRun is a sequence of episodes.
type rmiRun struct {
	episodes []rmiResult
}

func (r *rmiRun) add(e rmiResult, rep *report) {
	for _, v := range e.violations {
		rep.check(false, "episode %d: %s", len(r.episodes), v)
	}
	if len(r.episodes) > 0 && e.fingerprint != r.episodes[0].fingerprint {
		rep.check(false, "episode %d counts %s differ from episode 0's %s", len(r.episodes), e.fingerprint, r.episodes[0].fingerprint)
	}
	r.episodes = append(r.episodes, e)
}

func (r *rmiRun) collect(f func(e rmiResult) durations) durations {
	var out durations
	for _, e := range r.episodes {
		out = append(out, f(e)...)
	}
	return out
}

func (r *rmiRun) calls() durations { return r.collect(func(e rmiResult) durations { return e.calls }) }
func (r *rmiRun) windows() durations {
	return r.collect(func(e rmiResult) durations { return e.windows })
}

// sends counts the messages the traced endpoints carried.
func (r *rmiRun) sends() int64 {
	var n int64
	for _, e := range r.episodes {
		n += e.sends
	}
	return n
}

// perCall is the run's wall time per call, reclamation pauses included.
func (r *rmiRun) perCall() ratio {
	return ratio{float64(r.windows().sum()), float64(len(r.calls()))}
}

// enough reports whether the run may stop: budget spent, at least min
// episodes, and enough calls for the tail percentile.
func (r *rmiRun) enough(start time.Time, budget time.Duration, min int) bool {
	return time.Since(start) >= budget && len(r.episodes) >= min && enoughForTail(len(r.calls()), tailQ)
}

// idleSpin starts the idle spinners for an rmi run; a run without them
// still measures, and notes why.
func idleSpin(rep *report) (stop func()) {
	stop, err := startIdleSpinners()
	if err != nil {
		rep.Notes["idle_spinners"] = err.Error()
		return func() {}
	}
	return stop
}

func rmiUntraced(cfg runConfig, rep *report) {
	defer idleSpin(rep)()
	var run rmiRun
	var mem memSampler
	start := time.Now()
	for !run.enough(start, cfg.budget, 3) && len(rep.Failures) == 0 {
		run.add(rmiEpisode(true, nil, &mem), rep)
	}
	var setups, swept durations
	var msgs, bytes, allocs uint64
	sweptObjs := 0
	for _, e := range run.episodes {
		setups = append(setups, e.setup)
		swept = append(swept, e.swept...)
		msgs += e.msgs
		bytes += e.bytes
		allocs += e.allocs
		sweptObjs += e.sweptObjs
		rep.Attempted += int64(e.attempted)
		rep.Failed += int64(e.failed)
	}
	calls := run.calls()
	rep.set("setup_s", setups.quantile(0.5).Seconds(), len(setups))
	rep.set("op_p50_us", us(calls.quantile(0.5)), len(calls))
	rep.set("op_p90_us", us(calls.quantile(tailQ)), len(calls))
	rep.setRatio("ops_per_s", ratio{float64(len(calls)), run.windows().sum().Seconds()})
	rep.setRatio("allocs_per_op", ratio{float64(allocs), float64(len(calls))})
	rep.set("swept_p50_ms", ms(swept.quantile(0.5)), len(swept))
	rep.set("swept_p90_ms", ms(swept.quantile(tailQ)), len(swept))
	// Every exported reference is swept by the pause that follows its
	// window (a violated window fails the run), so this is one pause.
	rep.setRatio("swept_rounds_mean", ratio{float64(len(swept)), float64(len(swept))})
	rep.setRatio("msgs_per_swept_obj", ratio{float64(msgs), float64(sweptObjs)})
	rep.setRatio("bytes_per_swept_obj", ratio{float64(bytes), float64(sweptObjs)})
	rep.set("peak_heap_mb", mem.peakMB(), 0)
	rep.check(enoughForTail(len(calls), tailQ), "%d calls leave fewer than %d beyond p%g", len(calls), minBeyond, 100*tailQ)
	rep.Notes["episodes"] = len(run.episodes)
	if len(run.episodes) > 0 {
		rep.Notes["fingerprint"] = run.episodes[0].fingerprint
	}
}

// rmiTraced spends half the budget alternating untraced episodes of a DGC
// pair and a DisableDGC pair (the Table 1 comparison, and the untraced
// baseline for the tracing overhead), then the other half on traced DGC
// episodes.
func rmiTraced(cfg runConfig, rep *report, tr *tracer) {
	defer idleSpin(rep)()
	var withDGC, plain, traced rmiRun
	var mem memSampler
	start := time.Now()
	for !(withDGC.enough(start, cfg.budget/2, 2) && plain.enough(start, cfg.budget/2, 2)) && len(rep.Failures) == 0 {
		withDGC.add(rmiEpisode(true, nil, &mem), rep)
		plain.add(rmiEpisode(false, nil, &mem), rep)
	}
	start = time.Now()
	for !traced.enough(start, cfg.budget/2, 2) && len(rep.Failures) == 0 {
		traced.add(rmiEpisode(true, tr, &mem), rep)
	}
	if len(rep.Failures) > 0 {
		return
	}
	if withDGC.episodes[0].fingerprint != traced.episodes[0].fingerprint {
		rep.check(false, "traced counts %s differ from untraced %s", traced.episodes[0].fingerprint, withDGC.episodes[0].fingerprint)
	}
	dgcP50, plainP50 := withDGC.calls().quantile(0.5), plain.calls().quantile(0.5)
	rep.Metrics["node.dgc_overhead_pct"] = reported{Value: pctOver(float64(dgcP50), float64(plainP50)), Samples: len(plain.calls())}
	rep.Notes["dgc_call_p50_us"], rep.Notes["plain_call_p50_us"] = us(dgcP50), us(plainP50)
	rep.Metrics["trace.overhead_pct"] = reported{
		Value:   pctOver(traced.perCall().value(), withDGC.perCall().value()),
		Samples: len(traced.calls()),
	}

	var msgs, bytes uint64
	sweptObjs := 0
	for _, e := range traced.episodes {
		rep.Attempted += int64(e.attempted)
		rep.Failed += int64(e.failed)
		msgs += e.msgs
		bytes += e.bytes
		sweptObjs += e.sweptObjs
	}
	// Span-derived figures divide by span counts, which include the warm-up
	// calls that were traced too; wire figures cover the timed calls only.
	layers := tr.layers()
	calls := float64(layers["rmi.call"].count)
	usPer := func(name string, den float64) ratio { return ratio{us(layers[name].self), den} }
	rep.setRatio("heap.mutator_us_per_call", usPer("heap.mutator", calls))
	rep.setRatio("node.invoke_us_per_call", usPer("node.invoke", calls))
	sendMsgs := traced.sends()
	rep.setRatio("transport.send_us_per_msg", ratio{us(layers["transport.send"].total), float64(sendMsgs)})
	rep.setRatio("transport.rtt_us_per_call", usPer("rmi.call", calls))
	for _, k := range []string{"InvokeRequest", "InvokeReply", "NewSetStubs", "CDM", "BatchCDM"} {
		l := layers["node.handle_us."+k]
		rep.setRatio("node.handle_us."+k, ratio{us(l.self), float64(l.count)})
	}
	pauses := layers["lgc.reclaim"]
	rep.setRatio("lgc.reclaim_ms_per_batch", ratio{ms(pauses.total), float64(pauses.count)})
	timed := float64(len(traced.calls()))
	rep.setRatio("wire.bytes_per_call", ratio{float64(bytes), timed})
	runs := layers["lgc.run"]
	rep.setRatio("lgc.ms_per_run", ratio{ms(runs.self), float64(runs.count)})
	rep.setRatio("lgc.ms_per_round", ratio{ms(runs.self), float64(pauses.count)})
	rep.setRatio("lgc.swept_per_run", ratio{float64(sweptObjs), float64(runs.count)})
	for _, name := range []string{"core.start_ms_per_round", "node.cdm_msgs_per_round", "core.detections_per_round",
		"core.race_drops_per_round", "core.dedups_per_round", "core.relaunches_per_round", "core.useful_frac",
		"transport.fabric_ms_per_round", "trace.events_per_round", "snapshot.ms_per_run", "snapshot.ms_per_round",
		"snapshot.cache_hit_frac", "heap.churn_ms_per_round", "cluster.pool_speedup"} {
		rep.setRatio(name, ratio{})
	}
	rep.Notes["wire_msgs_per_call"] = float64(msgs) / timed
	rep.Notes["episodes"] = []int{len(withDGC.episodes), len(plain.episodes), len(traced.episodes)}
}

// timedEndpoint wraps a TCP endpoint in traced runs: it times Send and
// FlushStage (frame encode plus socket write) and each delivered message's
// Node.HandleMessage, and transmits the handler's responses itself, timed,
// exactly as TCPEndpoint does after a handler returns.
type timedEndpoint struct {
	inner *dgc.TCPEndpoint
	pair  *rmiPair
	msgs  atomic.Int64
}

var (
	_ transport.Endpoint = (*timedEndpoint)(nil)
	_ transport.Stager   = (*timedEndpoint)(nil)
)

func (e *timedEndpoint) Self() ids.NodeID { return e.inner.Self() }
func (e *timedEndpoint) Close() error     { return e.inner.Close() }
func (e *timedEndpoint) BeginStage()      { e.inner.BeginStage() }

func (e *timedEndpoint) FlushStage() { e.flush(int(e.pair.sendParent.Load())) }

func (e *timedEndpoint) flush(parent int) {
	i := e.pair.tr.begin("transport.send", e.pair.group.Load(), parent)
	e.inner.FlushStage()
	e.pair.tr.end(i)
}

// Send is called by the node on the driving goroutine.
func (e *timedEndpoint) Send(to ids.NodeID, msg wire.Message) error {
	return e.send(int(e.pair.sendParent.Load()), to, msg)
}

func (e *timedEndpoint) send(parent int, to ids.NodeID, msg wire.Message) error {
	e.msgs.Add(1)
	i := e.pair.tr.begin("transport.send", e.pair.group.Load(), parent)
	err := e.inner.Send(to, msg)
	e.pair.tr.end(i)
	return err
}

func (e *timedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.inner.SetHandler(nil)
		return
	}
	e.inner.SetHandler(func(from ids.NodeID, msg wire.Message) []transport.Envelope {
		parent := int(e.pair.callSpan.Load())
		i := e.pair.tr.begin(handleNames[msg.Kind()], e.pair.group.Load(), parent)
		outs := h(from, msg)
		e.pair.tr.end(i)
		if len(outs) > 1 {
			e.inner.BeginStage()
		}
		for _, o := range outs {
			_ = e.send(parent, o.To, o.Msg) // best effort, like TCPEndpoint
		}
		if len(outs) > 1 {
			e.flush(parent)
		}
		return nil
	})
}
