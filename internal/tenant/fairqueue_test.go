package tenant

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// drain pulls n items and tallies them by tenant.
func drain(t *testing.T, f *FairQueue[int], n int) map[string]int {
	t.Helper()
	got := map[string]int{}
	for i := 0; i < n; i++ {
		_, id, ok := f.Dequeue()
		if !ok {
			t.Fatalf("queue reported done after %d of %d items", i, n)
		}
		got[id]++
	}
	return got
}

func fill(t *testing.T, f *FairQueue[int], id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.Enqueue(id, i); err != nil {
			t.Fatalf("enqueue %s #%d: %v", id, i, err)
		}
	}
}

// A single-tenant queue is a FIFO: DRR must not reorder within a
// tenant.
func TestFairQueueFIFOWithinTenant(t *testing.T) {
	f := NewFairQueue[int](0, nil)
	for i := 0; i < 10; i++ {
		if err := f.Enqueue("a", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		v, id, ok := f.Dequeue()
		if !ok || id != "a" || v != i {
			t.Fatalf("dequeue #%d = (%d, %q, %v), want (%d, a, true)", i, v, id, ok, i)
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after draining", f.Len())
	}
}

// Equal weights, skewed offered load: the flooding tenant must not
// starve the light one. While both are backlogged, service alternates
// 1:1 regardless of backlog depth.
func TestFairQueueEqualWeightSkewedLoad(t *testing.T) {
	f := NewFairQueue[int](1000, nil)
	fill(t, f, "flood", 100)
	fill(t, f, "light", 10)

	// The first 20 dequeues must serve both tenants evenly: the light
	// tenant gets ~10 of them even though the flooder enqueued first
	// and 10x as much.
	got := drain(t, f, 20)
	if got["light"] < 8 {
		t.Fatalf("light tenant got %d of the first 20 slots (flood got %d): starved", got["light"], got["flood"])
	}
	// The remainder is all flood.
	rest := drain(t, f, 90)
	if rest["flood"] != 90 {
		t.Fatalf("tail = %v, want 90 flood", rest)
	}
}

// The WFQ fairness property: over any interval where every tenant
// stays backlogged, each tenant's served share is proportional to its
// weight, within tolerance.
func TestFairQueueWeightedShareProperty(t *testing.T) {
	weights := map[string]int{"w1": 1, "w3": 3, "w6": 6}
	f := NewFairQueue[int](10000, func(id string) int { return weights[id] })
	const per = 600
	for id := range weights {
		fill(t, f, id, per)
	}
	// Drain while all three stay backlogged: 600 items of a 1800-item
	// backlog, then check shares against weights 1:3:6.
	const take = 600
	got := drain(t, f, take)
	total := 0
	for _, w := range weights {
		total += w
	}
	for id, w := range weights {
		wantShare := float64(w) / float64(total)
		gotShare := float64(got[id]) / float64(take)
		// DRR serves whole rounds of 1+3+6 credits, so shares are exact
		// up to one partial round; 2% absolute absorbs the boundary.
		if math.Abs(gotShare-wantShare) > 0.02 {
			t.Errorf("tenant %s: served share %.3f, weight share %.3f (served %d of %d)",
				id, gotShare, wantShare, got[id], take)
		}
	}
	if t.Failed() {
		t.Fatalf("served by tenant: %v", got)
	}
}

// Closed-loop churn: each stream keeps exactly one request in flight,
// re-enqueueing only after the previous one is served — the pattern a
// synchronous client fleet produces. The light tenant's queue empties
// and rejoins the ring on almost every round while the heavy tenant
// stays backlogged; service must still split ~50/50. (Regression: the
// scheduler used to issue credits only when the walk advanced onto a
// queue, so a queue the cursor was re-aimed at by a neighbour's
// removal was skipped creditless every round and starved.)
func TestFairQueueClosedLoopChurn(t *testing.T) {
	f := NewFairQueue[chan struct{}](64, nil)
	deadline := time.Now().Add(400 * time.Millisecond)

	served := map[string]int{}
	var mu sync.Mutex
	done := make(chan struct{})
	go func() { // single worker, fixed per-item service time
		defer close(done)
		for {
			ch, id, ok := f.Dequeue()
			if !ok {
				return
			}
			time.Sleep(time.Millisecond)
			mu.Lock()
			served[id]++
			mu.Unlock()
			close(ch)
		}
	}()

	var wg sync.WaitGroup
	stream := func(id string) {
		defer wg.Done()
		for time.Now().Before(deadline) {
			ch := make(chan struct{})
			if err := f.Enqueue(id, ch); err != nil {
				t.Errorf("enqueue %s: %v", id, err)
				return
			}
			<-ch
		}
	}
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go stream("heavy")
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go stream("light")
	}
	wg.Wait()
	f.Close()
	<-done

	mu.Lock()
	defer mu.Unlock()
	total := served["heavy"] + served["light"]
	if total == 0 {
		t.Fatal("nothing served")
	}
	share := float64(served["heavy"]) / float64(total)
	t.Logf("heavy %d, light %d (heavy share %.3f)", served["heavy"], served["light"], share)
	if share < 0.4 || share > 0.6 {
		t.Fatalf("heavy share %.3f under 10:1 closed-loop load, want ~0.5", share)
	}
}

// A closed-loop tenant that re-enqueues right after each of its items
// is served must still alternate with a backlogged tenant. Regression:
// removing the last ring entry left the cursor one past the end, so
// the light tenant's rejoin landed exactly on the cursor and took every
// turn ("heavy light light light ...") until it stopped resubmitting.
func TestFairQueueClosedLoopRejoinAlternates(t *testing.T) {
	f := NewFairQueue[int](64, nil)
	fill(t, f, "heavy", 10)
	fill(t, f, "light", 1)
	var order []string
	for len(order) < 20 {
		_, id, ok := f.Dequeue()
		if !ok {
			t.Fatal("queue reported done")
		}
		order = append(order, id)
		if id == "light" {
			fill(t, f, "light", 1) // the client resubmits on response
		}
	}
	for i, id := range order {
		want := "heavy"
		if i%2 == 1 {
			want = "light"
		}
		if id != want {
			t.Fatalf("service order %v: slot %d went to %s, want strict alternation", order, i, id)
		}
	}
}

// A tenant that empties and re-enters the ring gets no credit
// carryover: it rejoins with zero deficit and waits its turn.
func TestFairQueueRejoinNoCredit(t *testing.T) {
	f := NewFairQueue[int](100, nil)
	fill(t, f, "a", 1)
	got := drain(t, f, 1)
	if got["a"] != 1 {
		t.Fatalf("drained %v", got)
	}
	// a is now idle; b builds a backlog, then a re-enters.
	fill(t, f, "b", 4)
	fill(t, f, "a", 4)
	got = drain(t, f, 8)
	if got["a"] != 4 || got["b"] != 4 {
		t.Fatalf("served %v, want 4 each", got)
	}
}

// Enqueue past a tenant's cap fails that tenant only, with a typed
// FullError; the other tenant keeps admitting.
func TestFairQueuePerTenantCap(t *testing.T) {
	f := NewFairQueue[int](2, nil)
	fill(t, f, "a", 2)
	err := f.Enqueue("a", 99)
	var full *FullError
	if !errors.As(err, &full) || full.Tenant != "a" || full.Depth != 2 {
		t.Fatalf("overfull enqueue = %v, want FullError{a, 2}", err)
	}
	if err := f.Enqueue("b", 1); err != nil {
		t.Fatalf("b admission blocked by a's full queue: %v", err)
	}
}

// Close drains: pending items keep flowing, then Dequeue reports done;
// post-close Enqueue is refused.
func TestFairQueueCloseDrains(t *testing.T) {
	f := NewFairQueue[int](10, nil)
	fill(t, f, "a", 3)
	f.Close()
	if err := f.Enqueue("a", 4); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-close enqueue = %v, want ErrQueueClosed", err)
	}
	got := drain(t, f, 3)
	if got["a"] != 3 {
		t.Fatalf("close dropped items: %v", got)
	}
	if _, _, ok := f.Dequeue(); ok {
		t.Fatal("Dequeue returned an item from a drained closed queue")
	}
}

// Blocked Dequeuers wake on Close and on Enqueue; concurrent producers
// and consumers agree on the item count.
func TestFairQueueConcurrent(t *testing.T) {
	f := NewFairQueue[int](10000, nil)
	const producers, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := string(rune('a' + p%4))
			for i := 0; i < per; i++ {
				if err := f.Enqueue(id, i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	var consumed sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for c := 0; c < 4; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				_, _, ok := f.Dequeue()
				if !ok {
					return
				}
				mu.Lock()
				total++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	f.Close()
	consumed.Wait()
	if total != producers*per {
		t.Fatalf("consumed %d, want %d", total, producers*per)
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after drain", f.Len())
	}
}
