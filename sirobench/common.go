package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/tenant"
	"repro/internal/version"
)

// input is one materialised corpus entry.
type input struct {
	name   string
	class  string
	expect string
	text   string
	src    version.V
	tgt    version.V
}

func (in input) pair() version.Pair { return version.Pair{Source: in.src, Target: in.tgt} }

// inputs materialises every entry of the given classes, manifest order.
func inputs(m *scenario.Manifest, classes ...string) ([]input, error) {
	var out []input
	for _, c := range classes {
		for _, e := range m.ByClass(c) {
			text, err := m.Materialize(e)
			if err != nil {
				return nil, err
			}
			src, err := version.Parse(e.Source)
			if err != nil {
				return nil, fmt.Errorf("entry %s: %w", e.Name, err)
			}
			tgt, err := version.Parse(e.Target)
			if err != nil {
				return nil, fmt.Errorf("entry %s: %w", e.Name, err)
			}
			out = append(out, input{name: e.Name, class: e.Class, expect: e.Expect, text: text, src: src, tgt: tgt})
		}
	}
	return out, nil
}

// warm synthesizes every distinct pair the inputs name.
func warm(svc *service.Service, ins []input) error {
	seen := map[version.Pair]bool{}
	for _, in := range ins {
		if seen[in.pair()] {
			continue
		}
		seen[in.pair()] = true
		if err := svc.Warm(context.Background(), in.src, in.tgt); err != nil {
			return fmt.Errorf("warming %s: %w", in.pair(), err)
		}
	}
	return nil
}

// sequence is a seeded order of input indices for one client: seeded
// permutations of all n inputs back to back, so every prefix visits
// each input about equally often whatever the seed.
func sequence(seed int64, n, length int) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, length+n)
	for len(seq) < length {
		seq = append(seq, rng.Perm(n)...)
	}
	return seq[:length]
}

// freshDir makes an empty directory under the run's scratch space.
func freshDir(e *env, parts ...string) (string, error) {
	dir := filepath.Join(append([]string{e.dir}, parts...)...)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// synthRecorder wraps the production synthesis path on traced runs: a
// span per synthesized pair plus the per-phase times and memo counters
// of the returned synth.Result.
type synthRecorder struct {
	tr *tracer

	mu      sync.Mutex
	opOf    map[version.Pair]int64 // op ids, when the caller knows them
	pairMS  []float64
	phaseMS map[string][]float64
	pairs   int
	counts  map[string]int
}

func newSynthRecorder(tr *tracer) *synthRecorder {
	if tr == nil {
		return nil
	}
	return &synthRecorder{tr: tr, opOf: map[version.Pair]int64{}, phaseMS: map[string][]float64{}, counts: map[string]int{}}
}

// fn is the service.Config.SynthFn to install; nil (the default path)
// when not tracing.
func (s *synthRecorder) fn() service.SynthFn {
	if s == nil {
		return nil
	}
	return func(pair version.Pair, opts synth.Options) (*synth.Result, error) {
		start := time.Now()
		res, err := service.DefaultSynthFn(pair, opts)
		d := time.Since(start)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.tr.record("synth.pair", s.opOf[pair], -1, start, d)
		if err != nil {
			return res, err
		}
		s.pairs++
		s.pairMS = append(s.pairMS, float64(d)/1e6)
		for phase, pd := range res.Stats.Phases() {
			s.phaseMS[phase] = append(s.phaseMS[phase], float64(pd)/1e6)
		}
		s.counts["gencache_hits"] += res.Stats.GenCacheHits
		s.counts["neighbor_seeded"] += res.Stats.NeighborSeeded
		s.counts["neighbor_fallbacks"] += res.Stats.NeighborFallbacks
		return res, nil
	}
}

// report writes the synth.* per-layer metrics.
func (s *synthRecorder) report(r *result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.set("synth.pair_ms", median(s.pairMS))
	for _, phase := range []string{"gen", "profile", "enum", "validate", "refine", "complete"} {
		r.set("synth."+phase+"_ms", median(s.phaseMS[phase]))
	}
	for _, c := range []string{"gencache_hits", "neighbor_seeded", "neighbor_fallbacks"} {
		r.set("synth."+c, float64(s.counts[c])/float64(max(1, s.pairs)))
	}
	r.note("synth_pairs_traced", s.pairs)
}

// Tenants of the multi-tenant stack: three API keys with distinct
// fair-queue weights and no quotas, so no request is refused.
const tenantsJSON = `{"tenants": [
  {"id": "bench-a", "key": "sirobench-key-a", "weight": 3, "rate_per_sec": -1, "max_inflight": -1, "max_jobs": -1},
  {"id": "bench-b", "key": "sirobench-key-b", "weight": 2, "rate_per_sec": -1, "max_inflight": -1, "max_jobs": -1},
  {"id": "bench-c", "key": "sirobench-key-c", "weight": 1, "rate_per_sec": -1, "max_inflight": -1, "max_jobs": -1}
]}`

var tenantKeys = []string{"sirobench-key-a", "sirobench-key-b", "sirobench-key-c"}

func tenantRegistry() (*tenant.Registry, error) {
	ts, err := tenant.ParseConfig([]byte(tenantsJSON))
	if err != nil {
		return nil, err
	}
	return tenant.NewRegistry(ts, tenant.Defaults{}), nil
}

// stack is the daemon's serving path as sirod assembles it with
// -tenants and -journal: the /v1 handler with the job manager, behind
// the tenant gateway, on a loopback listener, plus a client limited to
// two connections.
type stack struct {
	reg     *obs.Registry
	jobs    *service.Jobs
	inner   http.Handler // the service handler alone
	handler http.Handler // the gateway-wrapped handler being served
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
}

func newStack(svc *service.Service, registry *tenant.Registry, journalDir string) (*stack, error) {
	reg := svc.Metrics()
	jobs, _, err := service.NewJobs(svc, service.JobsConfig{Dir: journalDir, Metrics: reg, JobQuota: registry.MaxJobs})
	if err != nil {
		return nil, err
	}
	gw := tenant.NewGateway(tenant.GatewayConfig{Registry: registry, Metrics: reg})
	inner := service.NewHandler(svc, service.HandlerOpts{Jobs: jobs, GatewayStats: gw.Stats})
	st := &stack{reg: reg, jobs: jobs, inner: inner, handler: gw.Wrap(inner), served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jobs.Close()
		return nil, err
	}
	st.srv = &http.Server{Handler: st.handler}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return st, nil
}

// close stops the listener and the job manager; the service is the
// caller's.
func (st *stack) close() {
	st.srv.Close()
	<-st.served
	st.client.CloseIdleConnections()
	st.jobs.Close()
}

// journalCounts reads the job journal's append and fsync counters.
func (st *stack) journalCounts() (appends, fsyncs int64) {
	return st.reg.Counter("siro_journal_appends_total", "", "journal", "jobs").Value(),
		st.reg.Counter("siro_journal_fsyncs_total", "", "journal", "jobs").Value()
}

// closedLoop runs clients that each issue their next operation as soon
// as the previous one completes, until d has elapsed. op performs
// client c's k-th operation and returns the input bytes it translated.
// It stops the sampler, then returns the phase's wall and CPU time,
// every completed operation, the operations that failed, and the p99 of
// the gap between one operation's completion and the next one's start on
// a client (how late the generator ran).
func closedLoop(d time.Duration, clients int, s *sampler, op func(c, k int) (int64, error)) (wall, cpu time.Duration, ops []opRec, lateP99 float64, errs []error) {
	deadline := s.start.Add(d)
	logs := make([]opLog, clients)
	cerrs := make([][]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := time.Now()
			for k := 0; ; k++ {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				n, err := op(c, k)
				end := time.Now()
				if err == nil {
					err = logs[c].add(opRec{end: end.Sub(s.start), latency: end.Sub(start), bytes: n, gap: start.Sub(last)})
				}
				if err != nil {
					cerrs[c] = append(cerrs[c], err)
				}
				last = end
			}
		}(c)
	}
	wg.Wait()
	wall, cpu = s.finish()
	var gaps []float64
	for c := 0; c < clients; c++ {
		recs := logs[c].drain()
		for i, o := range recs {
			if i > 0 { // the first has no previous operation
				gaps = append(gaps, float64(o.gap)/1e6)
			}
		}
		ops = append(ops, recs...)
		errs = append(errs, cerrs[c]...)
	}
	sort.Float64s(gaps)
	return wall, cpu, ops, quantile(gaps, 0.99), errs
}
