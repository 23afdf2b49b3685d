package tenant

import (
	"errors"
	"sync"
)

// ErrQueueClosed reports an Enqueue after Close.
var ErrQueueClosed = errors.New("tenant: fair queue closed")

// FullError reports an Enqueue into a tenant queue already at
// capacity. Only the offending tenant's own backlog can trigger it —
// the point of per-tenant queues is that one tenant's flood fills one
// tenant's queue.
type FullError struct {
	Tenant string
	Depth  int
}

func (e *FullError) Error() string {
	return "tenant: fair queue full for " + displayID(e.Tenant)
}

func displayID(id string) string {
	if id == "" {
		return "anonymous"
	}
	return id
}

// FairQueue is a deficit-round-robin scheduler over per-tenant FIFO
// queues: each backlogged tenant holds a deficit counter that is
// granted weight(id) credits when its turn comes around, and one item
// costs one credit, so over any backlogged interval tenants are served
// in proportion to their weights regardless of offered load. It
// replaces the translation service's single FIFO channel when fair
// queueing is enabled: Enqueue never blocks (a full per-tenant queue
// is the caller's shed signal), Dequeue blocks like a channel receive,
// and Close drains — pending items keep being dequeued until the queue
// is empty, then Dequeue reports done, mirroring a closed channel.
type FairQueue[T any] struct {
	perTenantCap int
	weight       func(id string) int
	onDepth      func(id string, depth int) // nil ok; called with mu held

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string]*fqQueue[T]
	ring   []*fqQueue[T] // backlogged tenants in round-robin order
	cur    int           // ring index holding the turn; < len(ring) unless ring is empty
	size   int
	closed bool
}

type fqQueue[T any] struct {
	id      string
	items   []T
	head    int // index of the front item (amortized O(1) pop)
	deficit int
	granted bool // this turn's credits have been issued
}

func (q *fqQueue[T]) depth() int { return len(q.items) - q.head }

// NewFairQueue builds a DRR queue. perTenantCap bounds each tenant's
// backlog (<= 0 means 64); weight returns a tenant's share (nil, or
// values < 1, mean 1).
func NewFairQueue[T any](perTenantCap int, weight func(id string) int) *FairQueue[T] {
	if perTenantCap <= 0 {
		perTenantCap = 64
	}
	f := &FairQueue[T]{
		perTenantCap: perTenantCap,
		weight:       weight,
		queues:       map[string]*fqQueue[T]{},
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// SetDepthObserver installs a per-tenant depth callback (metrics).
// Call before traffic; the callback runs with the queue lock held and
// must not re-enter the queue.
func (f *FairQueue[T]) SetDepthObserver(fn func(id string, depth int)) {
	f.mu.Lock()
	f.onDepth = fn
	f.mu.Unlock()
}

// Enqueue appends v to the tenant's queue. It returns ErrQueueClosed
// after Close, or a *FullError when this tenant's backlog is at
// capacity; it never blocks.
func (f *FairQueue[T]) Enqueue(id string, v T) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrQueueClosed
	}
	q := f.queues[id]
	if q == nil {
		q = &fqQueue[T]{id: id}
		f.queues[id] = q
	}
	if q.depth() >= f.perTenantCap {
		return &FullError{Tenant: id, Depth: q.depth()}
	}
	if q.depth() == 0 {
		// Newly backlogged: join the ring behind the current position
		// with no credit carryover — the quantum is issued when its
		// turn comes around.
		q.deficit = 0
		q.granted = false
		f.ring = append(f.ring, q)
	}
	q.items = append(q.items, v)
	f.size++
	if f.onDepth != nil {
		f.onDepth(id, q.depth())
	}
	f.cond.Signal()
	return nil
}

// Dequeue blocks until an item is scheduled or the queue is closed and
// empty. It returns the item, the tenant it belonged to, and ok=false
// only when the queue is drained shut.
func (f *FairQueue[T]) Dequeue() (v T, id string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.size == 0 {
		if f.closed {
			var zero T
			return zero, "", false
		}
		f.cond.Wait()
	}
	q := f.popTurnLocked()
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // release the reference
	q.head++
	q.deficit--
	f.size--
	if q.depth() == 0 {
		q.items, q.head = nil, 0
		f.removeFromRingLocked(q)
	}
	if f.onDepth != nil {
		f.onDepth(q.id, q.depth())
	}
	return v, q.id, true
}

// popTurnLocked advances the round-robin to the next tenant owed
// service. A queue's credits are issued when its turn *begins* — the
// first visit with granted unset — never on the advance past it, so a
// queue the cursor lands on (fresh join, or a neighbour's removal
// re-aiming cur) still gets its quantum before being skipped. Ring
// entries always have items and every wrap issues at least one credit,
// so the walk terminates. Weights are consulted live — a hot reload
// takes effect at the next grant.
func (f *FairQueue[T]) popTurnLocked() *fqQueue[T] {
	for {
		q := f.ring[f.cur]
		if !q.granted {
			q.granted = true
			q.deficit = f.weightOf(q.id)
		}
		if q.deficit > 0 {
			return q
		}
		q.granted = false // turn spent; next visit starts a new one
		f.cur = (f.cur + 1) % len(f.ring)
	}
}

func (f *FairQueue[T]) weightOf(id string) int {
	if f.weight == nil {
		return 1
	}
	if w := f.weight(id); w > 0 {
		return w
	}
	return 1
}

// removeFromRingLocked drops an emptied queue from the rotation,
// keeping cur pointed at the next tenant in turn order: removing an
// earlier entry shifts cur down with the slice; removing the current
// entry leaves cur aimed at its forward successor, wrapped to 0 when
// the removed entry was last. The wrap must happen here, not lazily at
// the next Dequeue: a tenant that rejoins before the next Dequeue is
// appended at index len(ring), and an unwrapped cur would hand it the
// turn ahead of every backlogged tenant.
func (f *FairQueue[T]) removeFromRingLocked(q *fqQueue[T]) {
	q.deficit = 0
	q.granted = false
	for i, e := range f.ring {
		if e == q {
			f.ring = append(f.ring[:i], f.ring[i+1:]...)
			if i < f.cur {
				f.cur--
			}
			if f.cur >= len(f.ring) {
				f.cur = 0
			}
			return
		}
	}
}

// Len is the total backlog across tenants.
func (f *FairQueue[T]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Depth is one tenant's backlog.
func (f *FairQueue[T]) Depth(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if q := f.queues[id]; q != nil {
		return q.depth()
	}
	return 0
}

// Depths snapshots every tenant's backlog (tenants with queues ever
// created; zero-depth entries included so gauges can reset).
func (f *FairQueue[T]) Depths() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.queues))
	for id, q := range f.queues {
		out[id] = q.depth()
	}
	return out
}

// Close stops admission. Pending items keep draining through Dequeue;
// once empty, Dequeue reports done — the closed-channel contract the
// worker pool expects.
func (f *FairQueue[T]) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}
