// Command perfbench is gotcpls's end-to-end and per-layer benchmark.
// One run measures one workload for a fixed time, checks every output
// and prints its metrics, the last line being one JSON object:
//
//	bash perfbench/run.sh --workload rpc --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures an untraced phase and a traced phase and reports the
// per-layer metrics, the layer ladder and the tracing overhead. See
// perfbench/README.md for the workloads and what each metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// env is one set-up workload, ready to measure.
type env interface {
	// load drives the workload until deadline, recording into m.
	load(b *bench, m *meter, deadline time.Time)
	workers() int
	transport() transport
	obs() *obs
	samples() envSamples
	// finish runs the end-of-run output checks, then tears down.
	finish(b *bench)
}

// envSamples are cross-goroutine latencies a workload collects itself.
type envSamples struct {
	acceptLagUS []float64
	teardownUS  []float64
}

type workloadSpec struct {
	build func(*bench) (env, setupInfo, error)
	// setups is how many times a run sets up; setup_s is their median.
	setups int
}

var workloads = map[string]workloadSpec{
	"bulk":  {buildBulk, 15},
	"rpc":   {buildRPC, 15},
	"churn": {buildChurn, 5},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// heldSessions is how many idle session pairs the churn server holds.
const heldSessions = 2000

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: bulk, rpc or churn")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload bulk|rpc|churn, --seconds > 0, --trace 0|1")
		return 2
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), held: heldSessions}
	return execute(out, *name, b, *traced == 1)
}

// execute runs workload name with b's parameters, prints the result
// and returns the exit code.
func execute(out io.Writer, name string, b *bench, traced bool) int {
	printFacts(out, name, b, traced)
	var res result
	var err error
	if traced {
		res, err = runTraced(out, b, workloads[name], name)
	} else {
		res, err = runEndToEnd(out, b, workloads[name], name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range b.fails.msgs {
		fmt.Fprintln(out, "# FAILED:", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printFacts prints the machine and the run's parameters.
func printFacts(out io.Writer, name string, b *bench, traced bool) {
	trace := 0
	if traced {
		trace = 1
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", name, b.seed, b.seconds.Seconds(), trace)
	if name == "churn" {
		fmt.Fprintf(out, "# held=%d\n", b.held)
	}
	fmt.Fprintf(out, "# machine: cpus=%d gomaxprocs=%d cpu_model=%q go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if why := workloadWhy(name); why != "" {
		fmt.Fprintf(out, "# why: %s\n", why)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workloadWhy reads the workload's reason from BENCHMARK.json in the
// working directory, where the benchmark's workloads are declared.
func workloadWhy(name string) string {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return ""
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
	}
	if json.Unmarshal(data, &decl) != nil {
		return ""
	}
	for _, w := range decl.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// waitUntil polls cond until it holds or timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// window is one measured stretch of load.
type window struct {
	m          *meter
	s0, s1     layerSnap
	wire       wireCount // over the window
	trace0     int64     // tracer clock at the window's edges
	trace1     int64
	pipeBusyNs int64
}

func measure(b *bench, e env) window {
	m := newMeter(e.workers())
	w := window{m: m}
	var wire0 wireCount
	var busy0 int64
	if b.wrap != nil {
		wire0 = b.wrap.wire.load()
		busy0 = b.pipeBusy.Load()
		w.trace0 = b.tr.now()
	}
	w.s0 = snapshot(e.transport())
	e.load(b, m, m.begin(b.seconds))
	m.finish()
	w.s1 = snapshot(e.transport())
	if b.wrap != nil {
		w.trace1 = b.tr.now()
		w.wire = b.wrap.wire.load().sub(wire0)
		w.pipeBusyNs = b.pipeBusy.Load() - busy0
	}
	return w
}

// setUp builds the workload spec.setups times, tearing down all but
// the last, and returns the last with the median set-up time.
func setUp(b *bench, spec workloadSpec, times int) (env, setupInfo, float64, error) {
	var durs []float64
	var e env
	var info setupInfo
	base := runtime.NumGoroutine()
	for i := 0; i < times; i++ {
		var err error
		if e, info, err = spec.build(b); err != nil {
			return nil, info, 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, info.dur.Seconds())
		if i < times-1 {
			e.finish(b)
			settle(base)
		}
	}
	return e, info, median(durs), nil
}

// settle waits for the goroutines of a torn-down set-up to exit, so
// the next one's goroutine count starts clean.
func settle(base int) {
	waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= base+2 })
}

// outcome totals the operations of the run's windows. Failures outside
// any operation (end-of-run checks, set-up teardowns) count as
// attempted-and-failed items of their own.
func (b *bench) outcome(ms ...*meter) (attempted, failed int64) {
	var opFailed int64
	for _, m := range ms {
		attempted += m.attempt.Load()
		opFailed += m.failed.Load()
	}
	extra := max(b.fails.n.Load()-opFailed, 0)
	return attempted + extra, opFailed + extra
}

func runEndToEnd(out io.Writer, b *bench, spec workloadSpec, name string) (result, error) {
	e, info, setupS, err := setUp(b, spec, spec.setups)
	if err != nil {
		return result{}, err
	}
	w := measure(b, e)
	e.finish(b)

	m := w.m
	sl := m.slices()
	if len(sl) == 0 {
		b.fails.add("no operation completed")
		sl = []slice{{lat: []float64{0}}}
	}
	pct := func(p float64) float64 {
		return medianOver(sl, func(s slice) float64 { return percentile(s.lat, p) })
	}
	metrics := map[string]metricValue{
		"setup_s":                {setupS, "s"},
		"goodput_MBps":           {medianOver(sl, func(s slice) float64 { return s.bytesPerSec }) / 1e6, "MB/s"},
		"ops_per_s":              {medianOver(sl, func(s slice) float64 { return s.opsPerSec }), "1/s"},
		"op_p50_us":              {pct(0.50), "us"},
		"cpu_us_per_op":          {medianOver(sl, func(s slice) float64 { return s.cpuPerOpNs }) / 1e3, "us"},
		"heap_KB_per_session":    {info.heapPerSession / 1024, "KB"},
		"goroutines_per_session": {info.goroutinesPerSession, "count"},
	}
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			b.fails.add("metric %s is not a number", k)
			metrics[k] = metricValue{0, v.Unit}
		}
	}
	attempted, failed := b.outcome(m)

	fmt.Fprintf(out, "# window: %.3f s, %d operations; metrics are medians over %d slices of %v\n",
		m.elapsed().Seconds(), m.totalOps(), len(sl), subWindow)
	p95, p99 := pct(0.95), pct(0.99)
	fmt.Fprintf(out, "# tail, medians over slices (not bounded metrics, see README): op_p90_us %.4f us, op_p95_us %.4f us, op_p99_us %.4f us\n",
		pct(0.90), p95, p99)
	fmt.Fprint(out, "# ops/s by slice:")
	for _, x := range sl {
		fmt.Fprintf(out, " %.0f", x.opsPerSec)
	}
	fmt.Fprintln(out)
	printNamed(out, name, metrics, float64(failed)/float64(max(attempted, 1)), p95, p99)
	return result{
		Correct:   b.fails.n.Load() == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// printNamed prints the end-to-end metrics, the failure ratio, and the
// names the rpc and churn workloads' readings of them go by (see
// README.md).
func printNamed(out io.Writer, workload string, m map[string]metricValue, failRatio, p95, p99 float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-24s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(out, "%-24s %14.4f %s\n", "fail_ratio", failRatio, "ratio")
	alias := func(name string, v float64, unit, of string) {
		fmt.Fprintf(out, "%-24s %14.4f %s (%s)\n", name, v, unit, of)
	}
	switch workload {
	case "rpc":
		alias("rpc_per_s", m["ops_per_s"].Value, "1/s", "ops_per_s")
		alias("rpc_p50_us", m["op_p50_us"].Value, "us", "op_p50_us")
		alias("rpc_p95_us", p95, "us", "tail")
		alias("rpc_p99_us", p99, "us", "tail")
	case "churn":
		alias("sessions_per_s", m["ops_per_s"].Value, "1/s", "ops_per_s")
		alias("session_p50_ms", m["op_p50_us"].Value/1e3, "ms", "op_p50_us")
		alias("session_p95_ms", p95/1e3, "ms", "tail")
		alias("session_p99_ms", p99/1e3, "ms", "tail")
	}
}

func runTraced(out io.Writer, b *bench, spec workloadSpec, name string) (result, error) {
	// Phase A: untraced, for the program-side counters and the
	// baseline of the tracing overhead.
	base := runtime.NumGoroutine()
	eA, _, _, err := setUp(b, spec, 1)
	if err != nil {
		return result{}, err
	}
	regVars := eA.obs().reg.Len()
	wA := measure(b, eA)
	scrapeMS := eA.obs().scrapeMS()
	acct := eA.obs().acct.Stats()
	samples := eA.samples()
	eA.finish(b)
	settle(base)

	// Phase B: the same workload over traced transports, with spans.
	b.tr = newTracer()
	b.wrap = &wrapper{tr: b.tr, wire: &wireStats{}}
	b.pipeBusy = new(atomic.Int64)
	eB, _, _, err := setUp(b, spec, 1)
	if err != nil {
		return result{}, err
	}
	wB := measure(b, eB)
	eB.finish(b)
	var spans []span
	for _, s := range b.tr.snapshot() {
		if s.start >= wB.trace0 && s.end <= wB.trace1 {
			spans = append(spans, s)
		}
	}
	st := analyze(spans)
	tracePath := filepath.Join(".bench_build", "perfbench", "traces", name+".spans.jsonl")
	if err := writeSpans(tracePath, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}

	lad, err := runLadder(b.seed, shapes[name], 2*time.Second)
	if err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}

	opsA := float64(max(wA.m.totalOps(), 1))
	opsB := float64(max(wB.m.totalOps(), 1))
	cpuA := float64(wA.s1.cpu-wA.s0.cpu) / opsA
	cpuB := float64(wB.s1.cpu-wB.s0.cpu) / opsB
	appBytesB := float64(wB.m.totalBytes())
	d := func(f func(layerSnap) float64) float64 { return f(wA.s1) - f(wA.s0) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, p)
	}
	gets := d(func(s layerSnap) float64 { return float64(s.pool.Gets) })
	metrics := map[string]metricValue{
		"core.connect_us":             {st[kConnect].meanUS(), "us"},
		"core.handshake_us":           {st[kHandshake].meanUS(), "us"},
		"core.join_us":                {st[kJoin].meanUS(), "us"},
		"core.close_us":               {st[kClose].meanUS(), "us"},
		"core.accept_lag_us":          {pct(samples.acceptLagUS, 0.5), "us"},
		"core.server_teardown_p50_us": {pct(samples.teardownUS, 0.5), "us"},
		"core.server_teardown_p99_us": {pct(samples.teardownUS, 0.99), "us"},
		"core.write_us":               {st[kWrite].meanUS(), "us"},
		"core.write_self_us":          {st[kWrite].selfMeanUS(), "us"},
		"core.read_wait_us":           {st[kRead].meanUS(), "us"},
		"core.shed_sessions":          {float64(acct.ShedIdle + acct.ShedDegraded), "count"},
		"core.rejected_pre_tls":       {float64(acct.RejectedPreTLS), "count"},
		"tls13.wire_records_per_op":   {float64(wB.wire.records) / opsB, "count"},
		"tls13.wire_overhead":         {ratio(float64(wB.wire.bytes), appBytesB) - 1, "ratio"},
		"tls13.records_per_write":     {ratio(float64(wB.wire.records), float64(wB.wire.writes)), "count"},
		"tls13.handshake_us":          {lad.handshakeUS, "us"},
		"tls13.seal_ns_per_record":    {lad.sealNsPerRecord, "ns"},
		"tls13.open_ns_per_record":    {lad.openNsPerRecord, "ns"},
		"tls13.forgeries_per_record":  {lad.forgeriesPerRec, "count"},
		"tls13.tax":                   {lad.tax, "ratio"},
		"aead.ceiling_MBps":           {lad.ceilingMBps, "MB/s"},
		"record.frames_per_op":        {d(func(s layerSnap) float64 { return float64(s.codec.FramesEncoded) }) / opsA, "count"},
		"record.decode_errors":        {d(func(s layerSnap) float64 { return float64(s.codec.DecodeErrors) }), "count"},
		"tcpnet.dial_us":              {st[kDial].meanUS(), "us"},
		"tcpnet.write_us":             {st[kTCPWrite].meanUS(), "us"},
		"tcpnet.read_us":              {st[kTCPRead].meanUS(), "us"},
		"tcpnet.segs_per_op":          {d(func(s layerSnap) float64 { return float64(s.tcp.SegsSent) }) / opsA, "count"},
		"tcpnet.retransmits":          {d(func(s layerSnap) float64 { return float64(s.tcp.Retransmits) }), "count"},
		"netsim.pkts_per_op":          {d(func(s layerSnap) float64 { return float64(s.link.Sent) }) / opsA, "count"},
		"netsim.drops":                {float64(wA.s1.link.Drops()), "count"},
		"netsim.queue_hwm_bytes":      {float64(wA.s1.link.QueueHighWater), "bytes"},
		"bufpool.gets_per_op":         {gets / opsA, "count"},
		"bufpool.miss_ratio":          {ratio(d(func(s layerSnap) float64 { return float64(s.pool.Misses) }), gets), "ratio"},
		"bufpool.in_use_bytes":        {float64(wA.s1.pool.InUseBytes), "bytes"},
		"telemetry.registry_vars":     {float64(regVars), "count"},
		"telemetry.scrape_ms":         {scrapeMS, "ms"},
		"runtime.allocs_per_op":       {d(func(s layerSnap) float64 { return float64(s.mallocs) }) / opsA, "count"},
		"runtime.alloc_bytes_per_op":  {d(func(s layerSnap) float64 { return float64(s.allocBytes) }) / opsA, "bytes"},
		"runtime.gc_cycles_per_s":     {d(func(s layerSnap) float64 { return float64(s.gcs) }) / wA.m.elapsed().Seconds(), "1/s"},
		"pipe.busy_us_per_op":         {float64(wB.pipeBusyNs) / 1e3 / opsB, "us"},
		"trace.overhead":              {cpuB/cpuA - 1, "ratio"},
		"trace.spans":                 {float64(len(spans)), "count"},
	}
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			metrics[k] = metricValue{0, v.Unit}
		}
	}

	fmt.Fprintf(out, "# untraced phase: %.3f s, %d operations, %.2f us CPU/op\n", wA.m.elapsed().Seconds(), wA.m.totalOps(), cpuA/1e3)
	fmt.Fprintf(out, "# traced phase:   %.3f s, %d operations, %.2f us CPU/op, %d spans (buffer full: %v) -> %s\n",
		wB.m.elapsed().Seconds(), wB.m.totalOps(), cpuB/1e3, len(spans), b.tr.full.Load(), tracePath)
	fmt.Fprintf(out, "# tracing overhead: %+.1f%% CPU per operation\n", (cpuB/cpuA-1)*100)
	printLadder(out, name, lad, st, wB)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-30s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	attempted, failed := b.outcome(wA.m, wB.m)
	return result{
		Correct:   b.fails.n.Load() == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// printLadder prints each layer's cost per record and its tax over the
// layer below it.
func printLadder(out io.Writer, name string, l ladder, st [numKinds]kindStats, w window) {
	sh := shapes[name]
	fmt.Fprintf(out, "# ladder for %s: %d stream context(s), %d-%d B records\n", name, sh.contexts, sh.minPayload, sh.maxPayload)
	fmt.Fprintf(out, "#   aead   crypto/cipher AES-128-GCM seal+open %10.0f ns/record  (ceiling %.0f MB/s)\n", l.gcmNsPerRecord, l.ceilingMBps)
	tlsNs := l.sealNsPerRecord + l.openNsPerRecord
	fmt.Fprintf(out, "#   tls13  record seal+open                    %10.0f ns/record  tax %.2fx over aead (%.2f forgeries/record)\n",
		tlsNs, l.tax, l.forgeriesPerRec)
	if recs := w.wire.records; recs > 0 && st[kWrite].n > 0 {
		coreNs := float64(st[kWrite].self) / float64(recs)
		fmt.Fprintf(out, "#   core   stream write self time             %10.0f ns/wire record  tax %.2fx over tls13 seal\n",
			coreNs, coreNs/l.sealNsPerRecord)
		for _, k := range []spanKind{kTCPWrite, kPipeWrite} {
			if st[k].n > 0 {
				tNs := float64(st[k].dur) / float64(recs)
				fmt.Fprintf(out, "#   %-6s transport write                    %10.0f ns/wire record  tax %.2fx over core self\n",
					strings.SplitN(kindNames[k], ".", 2)[0], tNs, tNs/coreNs)
			}
		}
	}
	fmt.Fprintf(out, "#   tls13  bare handshake (median of %d)      %10.0f us\n", l.handshakesTimed, l.handshakeUS)
}
