package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// The durability layer must not tax the synchronous hot path: with the
// job journal attached, a synchronous /v1/translate — JSON, buffered
// text, or streamed, successful or failed — appends nothing to it. This
// report (run by `make bench-journal`) asserts that a journaled
// service's sync translates leave the journal empty, checks with one
// batch job that the same replay does see appended records, and writes
// BENCH_journal.json for CI to archive when SIRO_BENCH_JSON names a
// file.
func TestJournalBenchReport(t *testing.T) {
	p := benchPair()
	dir := t.TempDir()
	svc := New(Config{Workers: 2})
	defer svc.Close()
	if err := svc.Warm(context.Background(), p.Source, p.Target); err != nil {
		t.Fatal(err)
	}
	text := sourceText(t, p.Source)

	// journalRecords reopens the journal and reports what replay finds.
	journalRecords := func(js *Jobs) *JobsRecovery {
		t.Helper()
		if err := js.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, rec, err := NewJobs(svc, JobsConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reopened.Close() })
		return rec
	}

	// The real fsyncing journal (no NoSync shortcut), exactly as sirod
	// runs it.
	js, _, err := NewJobs(svc, JobsConfig{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc, HandlerOpts{Jobs: js}))
	url := srv.URL + "/v1/translate?source=" + p.Source.String() + "&target=" + p.Target.String()
	post := func(contentType string, body io.Reader, wantStatus int) {
		t.Helper()
		resp, err := http.Post(url, contentType, body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s translate: status %d, want %d", contentType, resp.StatusCode, wantStatus)
		}
	}
	const rounds = 10
	requests := 0
	for i := 0; i < rounds; i++ {
		good, _ := json.Marshal(TranslateRequest{Source: p.Source.String(), Target: p.Target.String(), IR: text})
		post("application/json", bytes.NewReader(good), http.StatusOK)
		bad, _ := json.Marshal(TranslateRequest{Source: p.Source.String(), Target: p.Target.String(), IR: "not ir"})
		post("application/json", bytes.NewReader(bad), http.StatusBadRequest)
		post("text/plain", strings.NewReader(text), http.StatusOK) // known length: buffered
		// Unknown length (chunked transfer) always takes the streaming path.
		post("text/plain", io.MultiReader(strings.NewReader(text)), http.StatusOK)
		requests += 4
	}
	srv.Close()
	if rec := journalRecords(js); rec.Records != 0 {
		t.Fatalf("%d synchronous translates appended %d journal records, want 0", requests, rec.Records)
	}

	// Control: a batch job is journaled, so replay is not blind.
	js, _, err = NewJobs(svc, JobsConfig{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := js.Submit(context.Background(), []BatchItem{{Source: p.Source.String(), Target: p.Target.String(), IR: text}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if v, ok := js.Wait(ctx, ids[0], time.Minute); !ok || v.State != string(JobDone) {
		t.Fatalf("control job: ok=%v state=%s %s", ok, v.State, v.Error)
	}
	control := journalRecords(js)
	if control.Records == 0 || control.Jobs != 1 {
		t.Fatalf("control batch job: replay found %d records / %d jobs, want >0 / 1", control.Records, control.Jobs)
	}
	t.Logf("%d sync translates appended 0 journal records; one batch job appended %d", requests, control.Records)

	out := os.Getenv("SIRO_BENCH_JSON")
	if out == "" {
		return
	}
	report := struct {
		Benchmark      string `json:"benchmark"`
		Pair           string `json:"pair"`
		SyncRequests   int    `json:"sync_requests"`
		SyncRecords    int    `json:"sync_records_appended"`
		ControlRecords int    `json:"batch_job_records_appended"`
	}{
		Benchmark:      "journal records appended by synchronous translates",
		Pair:           p.String(),
		SyncRequests:   requests,
		SyncRecords:    0,
		ControlRecords: control.Records,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
