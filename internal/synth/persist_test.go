package synth_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irlib"
	"repro/internal/synth"
	"repro/internal/typegraph"
	"repro/internal/version"
)

func exportPair(t *testing.T, p version.Pair, opts synth.Options) []byte {
	t.Helper()
	s := synth.New(p.Source, p.Target, opts)
	res, err := s.Run(corpus.Tests(p.Source))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.ExportWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// Artifacts must be byte-deterministic: the content-addressed cache
// derives identity from (pair, fingerprint) and relies on equal keys
// producing equal bytes, across runs and across validation parallelism.
func TestExportByteDeterministic(t *testing.T) {
	p := version.Pair{Source: version.V12_0, Target: version.V3_6}
	a := exportPair(t, p, synth.Options{})
	b := exportPair(t, p, synth.Options{})
	if !bytes.Equal(a, b) {
		t.Fatalf("two synthesis runs exported different bytes:\n%s\n-- vs --\n%s", a, b)
	}
	c := exportPair(t, p, synth.Options{Workers: 8})
	if !bytes.Equal(a, c) {
		t.Fatalf("parallel validation changed the exported artifact")
	}
}

// The exported covered-sets must be sorted — they are part of the
// hashed content.
func TestExportCoveredSorted(t *testing.T) {
	blob := exportPair(t, version.Pair{Source: version.V12_0, Target: version.V3_6}, synth.Options{})
	var p struct {
		Translators []struct {
			Kind  string `json:"kind"`
			Cases []struct {
				Covered []string `json:"covered"`
			} `json:"cases"`
		} `json:"translators"`
	}
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Translators) == 0 {
		t.Fatal("no translators exported")
	}
	for _, tr := range p.Translators {
		for _, c := range tr.Cases {
			for i := 1; i < len(c.Covered); i++ {
				if c.Covered[i-1] > c.Covered[i] {
					t.Fatalf("%s: covered set not sorted: %v", tr.Kind, c.Covered)
				}
			}
		}
	}
}

func TestFingerprint(t *testing.T) {
	base := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{})
	if again := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{}); again != base {
		t.Fatalf("fingerprint not stable: %s vs %s", base, again)
	}
	if other := synth.Fingerprint(version.V13_0, version.V3_6, synth.Options{}); other == base {
		t.Fatalf("different source version produced the same fingerprint")
	}
	// The generation bounds shape the candidate space Import regenerates,
	// so they must be part of the identity.
	bounded := synth.Options{}
	bounded.Gen.MaxCandidates = 16
	if other := synth.Fingerprint(version.V12_0, version.V3_6, bounded); other == base {
		t.Fatalf("different generation bounds produced the same fingerprint")
	}
}

// The canonical fingerprint is an on-disk content address (artifact file
// names, cluster placement), so its bytes are pinned: memoizing it must
// not change what it hashes.
func TestFingerprintGolden(t *testing.T) {
	const want = "0ac6e76cb20b11aaca4442f2773e1ba83a4a22d9b3878775817b0c65593cfe24"
	for i := 0; i < 2; i++ { // first call computes, second is the memo hit
		if got := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{}); got != want {
			t.Fatalf("call %d: canonical 12.0->3.6 fingerprint = %s, want %s", i, got, want)
		}
	}
	bounded := synth.Options{Gen: typegraph.Options{MaxCandidates: 16}}
	const wantBounded = "dc6d0e1637a171fd254b381571738718f24f9809f80059cbe12e4ad042e2431b"
	if got := synth.Fingerprint(version.V17_0, version.V3_6, bounded); got != wantBounded {
		t.Fatalf("bounded 17.0->3.6 fingerprint = %s, want %s", got, wantBounded)
	}
}

// A poisoned library keeps every API signature and swaps only
// implementations; its fingerprint must still differ from the canonical
// one, or a poisoned synthesis would be persisted to (and imported
// from) the canonical artifact's content address.
func TestFingerprintPoisonedLibraryDiffers(t *testing.T) {
	canonical := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{})
	lying, n := chaos.Poison(irlib.Getters(version.V12_0),
		chaos.ComponentFault{API: "GetLHS", Kind: ir.ICmp, Mode: chaos.Lie})
	if n == 0 {
		t.Fatal("poison matched no API")
	}
	poisoned := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{Getters: lying})
	if poisoned == canonical {
		t.Fatalf("poisoned getters share the canonical fingerprint %s", canonical)
	}
	if again := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{Getters: lying}); again != poisoned {
		t.Fatalf("override fingerprint not stable: %s vs %s", poisoned, again)
	}
	// An override carrying exactly the canonical library is marked too.
	builders := synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{Builders: irlib.Builders(version.V3_6)})
	if builders == canonical || builders == poisoned {
		t.Fatalf("builders override fingerprint %s collides", builders)
	}
}

// Concurrent first calls for one key all see the same fingerprint
// (run under `make race`, which covers this package).
func TestFingerprintConcurrentFirstCall(t *testing.T) {
	opts := synth.Options{Gen: typegraph.Options{MaxTermSize: 5}} // a key no other test warms
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = synth.Fingerprint(version.V15_0, version.V4_0, opts)
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != got[0] {
			t.Fatalf("goroutine %d saw %s, goroutine 0 saw %s", i, fp, got[0])
		}
	}
	if got[0] == synth.Fingerprint(version.V15_0, version.V4_0, synth.Options{}) {
		t.Fatal("generation bounds ignored by the memoized fingerprint")
	}
}

// An artifact whose fingerprint no longer matches the live registry is
// stale and must be rejected before any key resolution is attempted.
func TestImportRejectsStaleFingerprint(t *testing.T) {
	blob := exportPair(t, version.Pair{Source: version.V12_0, Target: version.V3_6}, synth.Options{})
	tampered := []byte(strings.Replace(string(blob),
		synth.Fingerprint(version.V12_0, version.V3_6, synth.Options{}),
		strings.Repeat("0", 64), 1))
	if bytes.Equal(tampered, blob) {
		t.Fatal("tampering had no effect; fingerprint missing from artifact?")
	}
	if _, err := synth.Import(tampered, synth.Options{}); err == nil {
		t.Fatal("import accepted a stale fingerprint")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A fingerprint-less artifact (pre-fingerprint format) still imports.
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "fingerprint")
	old, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.Import(old, synth.Options{}); err != nil {
		t.Fatalf("legacy artifact without fingerprint rejected: %v", err)
	}
}

// Round trip: an imported artifact re-exports to the identical bytes.
func TestExportImportRoundTrip(t *testing.T) {
	blob := exportPair(t, version.Pair{Source: version.V12_0, Target: version.V3_6}, synth.Options{})
	res, err := synth.Import(blob, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("import→export round trip changed bytes")
	}
}
