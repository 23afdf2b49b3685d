package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// serveMix is serve-mixed's traffic: the weights of scenario's steady
// mix without its giant entries. Hot, longtail and malformed entries
// are JSON translates; medium entries are split evenly between JSON and
// ?stream=1; a tenth of hot and longtail are submitted as batch jobs;
// requests are spread over the three tenants' keys.
var serveMix = scenario.Mix{
	Name: "sirobench-serve",
	Weights: map[string]float64{
		scenario.ClassHot: 12, scenario.ClassLongtail: 3, scenario.ClassMedium: 2, scenario.ClassMalformed: 1,
	},
	StreamMedium:  0.5,
	BatchFraction: 0.1,
	Tenants:       tenantKeys,
}

// serveRate is the offered load, in requests per second. README.md
// records where this mix saturates.
const serveRate = 150.0

// Latency limits of serve-mixed, timed from each request's due time.
const (
	limitSmall = 25 * time.Millisecond  // hot, longtail, malformed
	limitMed   = 100 * time.Millisecond // medium
	limitBatch = 250 * time.Millisecond // batch submit to terminal state
)

// serve-mixed: an open loop at serveRate over two loopback connections
// against the /v1 handler configured as sirod runs multi-tenant.
type serveMixed struct {
	e      *env
	svc    *service.Service
	st     *stack
	synth  *synthRecorder
	ins    []input
	byName map[string]*servedInput
	sched  *scenario.Schedule
	next   int           // first schedule item not yet sent
	base   time.Duration // schedule offset of the current phase's start

	mu   sync.Mutex
	outs outputSet
}

// servedInput is an entry with its request bodies encoded at set-up.
type servedInput struct {
	input
	translate []byte // POST /v1/translate JSON
	batch     []byte // POST /v1/batch JSON, one job
}

// served is one request's outcome.
type served struct {
	latency time.Duration // from the due time
	done    time.Time
	ok      bool // the expected outcome, with its output collected
	bytes   int64
	err     string
}

func setupServe(e *env) (instance, error) {
	ins, err := inputs(e.manifest, scenario.ClassHot, scenario.ClassLongtail, scenario.ClassMedium, scenario.ClassMalformed)
	if err != nil {
		return nil, err
	}
	registry, err := tenantRegistry()
	if err != nil {
		return nil, err
	}
	journalDir, err := freshDir(e, "serve", "journal")
	if err != nil {
		return nil, err
	}
	rec := newSynthRecorder(e.tr)
	// No CacheDir: the translator cache is in memory, as sirod runs
	// without -cache.
	svc := service.New(service.Config{
		JobTimeout:   2 * time.Minute,
		MaxRetries:   2,
		FairQueue:    true,
		TenantWeight: registry.Weight,
		Coalesce:     true,
		SynthFn:      rec.fn(),
	})
	if err := warm(svc, ins); err != nil {
		svc.Close()
		return nil, err
	}
	st, err := newStack(svc, registry, journalDir)
	if err != nil {
		svc.Close()
		return nil, err
	}
	sched, err := scenario.Compile(e.manifest, serveMix, e.seed, int(serveRate*e.seconds.Seconds())+1, serveRate)
	if err != nil {
		st.close()
		svc.Close()
		return nil, err
	}
	sm := &serveMixed{e: e, svc: svc, st: st, synth: rec, ins: ins, byName: map[string]*servedInput{}, sched: sched, outs: outputSet{}}
	for _, in := range ins {
		batch, err := json.Marshal(service.BatchRequest{Jobs: []service.BatchItem{{Source: in.src.String(), Target: in.tgt.String(), IR: in.text}}})
		if err != nil {
			sm.close()
			return nil, err
		}
		sm.byName[in.name] = &servedInput{input: in, translate: translateBody(in), batch: batch}
	}
	return sm, nil
}

func (sm *serveMixed) close() {
	sm.st.close()
	sm.svc.Close()
}

func (sm *serveMixed) timed(d time.Duration, tr *tracer, r *result) error {
	var items []scenario.Item
	for sm.next < len(sm.sched.Items) && sm.sched.Items[sm.next].At()-sm.base < d {
		items = append(items, sm.sched.Items[sm.next])
		sm.next++
	}
	if len(items) == 0 {
		return fmt.Errorf("schedule exhausted")
	}
	base := sm.base
	sm.base += d
	apps0, syncs0 := sm.st.journalCounts()

	results := make([]served, len(items))
	lates := make([]float64, len(items))
	var wg sync.WaitGroup
	s := startSampler(time.Second)
	for i, it := range items {
		due := s.start.Add(it.At() - base)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lates[i] = float64(time.Since(due)) / 1e6
		wg.Add(1)
		go func(i int, it scenario.Item, due time.Time) {
			defer wg.Done()
			results[i] = sm.send(it, tr)
			results[i].done = time.Now()
			results[i].latency = results[i].done.Sub(due)
		}(i, it, due)
	}
	wg.Wait()
	_, cpu := s.finish()

	var ops []opRec
	var lastDone time.Time
	var inBytes int64
	completed, misses := 0, 0
	classLat := map[string][]float64{}
	for i, res := range results {
		ops = append(ops, opRec{end: res.done.Sub(s.start), latency: res.latency, bytes: res.bytes})
		if res.done.After(lastDone) {
			lastDone = res.done
		}
		key := items[i].Class + "/" + items[i].Mode
		classLat[key] = append(classLat[key], float64(res.latency)/1e6)
		if !res.ok {
			r.failed++
			misses++
			if _, seen := r.notes["first_error"]; !seen {
				r.note("first_error", fmt.Sprintf("%s %s %s: %s", items[i].Entry, items[i].Mode, items[i].Tenant, res.err))
			}
			continue
		}
		completed++
		inBytes += res.bytes
		if res.latency > limitOf(items[i]) {
			misses++
		}
	}
	r.attempted += len(results)
	wall := lastDone.Sub(s.start)

	latencyMetrics(ops, r)
	s.heapMetric(r)
	r.set("ops_per_s", float64(completed)/wall.Seconds())
	r.set("cpu_ms_per_op", float64(cpu)/1e6/float64(len(results)))
	r.set("mb_per_s", float64(inBytes)/1e6/wall.Seconds())
	r.set("slo_miss_ratio", float64(misses)/float64(len(results)))
	r.note("offered_rate_per_s", serveRate)
	r.note("schedule_digest", sm.sched.Digest())
	perClass := map[string]float64{}
	for k, xs := range classLat {
		perClass[k] = median(xs)
	}
	r.note("p50_ms_by_class_mode", perClass)

	sort.Float64s(lates)
	r.set("loadgen.late_p99_ms", quantile(lates, 0.99))
	apps1, syncs1 := sm.st.journalCounts()
	if tr != nil {
		r.set("journal.appends_per_op", float64(apps1-apps0)/float64(len(results)))
		r.set("journal.fsyncs_per_op", float64(syncs1-syncs0)/float64(len(results)))
	}
	return nil
}

// limitOf is a request's latency limit.
func limitOf(it scenario.Item) time.Duration {
	switch {
	case it.Mode == scenario.ModeBatch:
		return limitBatch
	case it.Class == scenario.ClassMedium:
		return limitMed
	default:
		return limitSmall
	}
}

// send issues one scheduled request and judges its outcome against the
// entry's expected outcome. Outputs of successful translations are kept
// for the oracle.
func (sm *serveMixed) send(it scenario.Item, tr *tracer) served {
	in := sm.byName[it.Entry]
	var res served
	op := int64(it.Seq)
	root := tr.begin("serve.request", op, -1)
	defer tr.end(root)
	var out string
	var err error
	switch it.Mode {
	case scenario.ModeStream:
		sp := tr.begin("http.stream", op, root)
		out, err = sm.stream(in, it.Tenant)
		tr.end(sp)
	case scenario.ModeBatch:
		out, err = sm.batch(in, it.Tenant, op, root, tr)
	default:
		sp := tr.begin("http.translate", op, root)
		out, err = sm.translate(in, it.Tenant)
		tr.end(sp)
	}
	if err != nil {
		res.err = err.Error()
		return res
	}
	res.ok = true
	if in.expect == "ok" {
		res.bytes = int64(len(in.text))
		sm.mu.Lock()
		sm.outs.addString(in.name, out)
		sm.mu.Unlock()
	}
	return res
}

func (sm *serveMixed) post(path, key, contentType string, body io.Reader) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, sm.st.base+path, body)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Api-Key", key)
	return sm.do(req)
}

func (sm *serveMixed) do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := sm.st.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body) // trailers arrive after the body
	return resp, body, err
}

// translate is a JSON /v1/translate. A malformed entry must fail with
// the Parse class.
func (sm *serveMixed) translate(in *servedInput, key string) (string, error) {
	resp, body, err := sm.post("/v1/translate", key, "application/json", bytes.NewReader(in.translate))
	if err != nil {
		return "", err
	}
	if in.expect != "ok" {
		var er service.ErrorResponse
		if resp.StatusCode == http.StatusBadRequest && json.Unmarshal(body, &er) == nil && er.Class == "parse error" {
			return "", nil
		}
		return "", fmt.Errorf("want a parse failure, got status %d: %.200s", resp.StatusCode, body)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	var tr service.TranslateResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return "", err
	}
	return tr.IR, nil
}

// stream is a raw-text ?stream=1 translate.
func (sm *serveMixed) stream(in *servedInput, key string) (string, error) {
	q := url.Values{"stream": {"1"}, "source": {in.src.String()}, "target": {in.tgt.String()}}
	resp, body, err := sm.post("/v1/translate?"+q.Encode(), key, "text/plain", strings.NewReader(in.text))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	if resp.Trailer.Get("X-Siro-Status") == "error" {
		return "", fmt.Errorf("stream failed after commit: %s", resp.Trailer.Get("X-Siro-Error"))
	}
	return string(body), nil
}

// batch submits a one-job batch and long-polls it to a terminal state.
func (sm *serveMixed) batch(in *servedInput, key string, op int64, root int, tr *tracer) (string, error) {
	sp := tr.begin("jobs.submit", op, root)
	resp, body, err := sm.post("/v1/batch", key, "application/json", bytes.NewReader(in.batch))
	tr.end(sp)
	if err != nil {
		return "", err
	}
	var br service.BatchResponse
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &br) != nil || len(br.Jobs) != 1 {
		return "", fmt.Errorf("batch status %d: %.200s", resp.StatusCode, body)
	}
	sp = tr.begin("jobs.poll", op, root)
	defer tr.end(sp)
	for {
		req, err := http.NewRequest(http.MethodGet, sm.st.base+"/v1/jobs/"+br.Jobs[0].ID+"?wait=5s", nil)
		if err != nil {
			return "", err
		}
		req.Header.Set("X-Api-Key", key)
		resp, body, err := sm.do(req)
		if err != nil {
			return "", err
		}
		var view service.JobView
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &view) != nil {
			return "", fmt.Errorf("job status %d: %.200s", resp.StatusCode, body)
		}
		switch service.JobState(view.State) {
		case service.JobDone:
			return view.IR, nil
		case service.JobFailed:
			return "", fmt.Errorf("job failed (%s): %s", view.Class, view.Error)
		}
	}
}

func (sm *serveMixed) check(r *result) { checkOutputs(sm.ins, sm.outs, sm.e.seed, r) }

func (sm *serveMixed) ledger(tr *tracer, r *result) error {
	return ledger(sm.svc, sm.st, sm.ins, sm.synth, tr, sm.e, r)
}
