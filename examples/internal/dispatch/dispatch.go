// Package dispatch implements message consumption (§2.2.d): local
// consumers with application activation, forwarding between staging
// areas, and delivery to external services with retry/backoff.
//
// Consumption is queue-driven: a Dispatcher runs worker goroutines that
// dequeue, route to a handler by event type ("application activation" —
// the handler runs only when a message needs it), and acknowledge on
// success or negatively acknowledge on failure, letting the queue's
// redelivery/dead-letter machinery absorb faults.
package dispatch

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/queue"
)

// HandlerFunc consumes one event. A returned error triggers negative
// acknowledgement (redelivery, then dead-letter).
type HandlerFunc func(*event.Event) error

// Dispatcher consumes a queue and activates handlers by event type.
type Dispatcher struct {
	q *queue.Queue
	// Workers is the consumer pool size (default 1).
	Workers int
	// RetryDelay postpones redelivery after a handler error.
	RetryDelay time.Duration

	mu       sync.RWMutex
	exact    map[string]HandlerFunc
	prefixes []prefixHandler
	fallback HandlerFunc

	handled atomic.Uint64
	failed  atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type prefixHandler struct {
	prefix string
	h      HandlerFunc
}

// NewDispatcher creates a dispatcher over a queue.
func NewDispatcher(q *queue.Queue) *Dispatcher {
	return &Dispatcher{
		q:       q,
		Workers: 1,
		exact:   make(map[string]HandlerFunc),
		done:    make(chan struct{}),
	}
}

// Handle registers a handler for an exact event type, or a type prefix
// when the pattern ends in ".*" (e.g. "db.trades.*"). "*" alone makes it
// the fallback for otherwise-unrouted events.
func (d *Dispatcher) Handle(pattern string, h HandlerFunc) error {
	if h == nil {
		return errors.New("dispatch: nil handler")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case pattern == "*":
		d.fallback = h
	case strings.HasSuffix(pattern, ".*"):
		d.prefixes = append(d.prefixes, prefixHandler{prefix: pattern[:len(pattern)-1], h: h})
	case pattern == "":
		return errors.New("dispatch: empty pattern")
	default:
		d.exact[pattern] = h
	}
	return nil
}

// route finds the handler for an event type.
func (d *Dispatcher) route(typ string) HandlerFunc {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if h, ok := d.exact[typ]; ok {
		return h
	}
	for _, p := range d.prefixes {
		if strings.HasPrefix(typ, p.prefix) {
			return p.h
		}
	}
	return d.fallback
}

// Handled reports successfully consumed messages.
func (d *Dispatcher) Handled() uint64 { return d.handled.Load() }

// Failed reports handler failures (each one nacked).
func (d *Dispatcher) Failed() uint64 { return d.failed.Load() }

// Start launches the worker pool. Call Stop to drain and halt.
func (d *Dispatcher) Start() {
	n := d.Workers
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				select {
				case <-d.done:
					return
				default:
				}
				msg, ok, err := d.q.WaitDequeue("dispatcher", 50*time.Millisecond, d.done)
				if err != nil || !ok {
					continue
				}
				d.consume(msg)
			}
		}()
	}
}

func (d *Dispatcher) consume(msg *queue.Msg) {
	h := d.route(msg.Event.Type)
	if h == nil {
		// No handler: treat as failure so the message dead-letters
		// rather than vanishing.
		d.failed.Add(1)
		_ = d.q.Nack(msg.Receipt, d.RetryDelay)
		return
	}
	if err := h(msg.Event); err != nil {
		d.failed.Add(1)
		_ = d.q.Nack(msg.Receipt, d.RetryDelay)
		return
	}
	d.handled.Add(1)
	_ = d.q.Ack(msg.Receipt)
}

// Stop halts the workers and waits for them.
func (d *Dispatcher) Stop() {
	d.once.Do(func() { close(d.done) })
	d.wg.Wait()
}

// DrainOnce synchronously consumes until the queue is empty — useful in
// tests and batch pipelines.
func (d *Dispatcher) DrainOnce() (int, error) {
	n := 0
	for {
		msg, ok, err := d.q.Dequeue("dispatcher")
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		d.consume(msg)
		n++
	}
}

// Forwarder moves messages from one staging area to another
// (§2.2.d.ii.1 "forwarding messages to other staging areas"), preserving
// the event payload and applying an optional transform.
type Forwarder struct {
	Src, Dst *queue.Queue
	// Transform optionally rewrites events in flight (nil = identity).
	// Returning nil drops the message (acked, not forwarded).
	Transform func(*event.Event) *event.Event
	// Priority for re-enqueue on the destination.
	Priority int

	forwarded atomic.Uint64
}

// Forwarded reports messages moved.
func (f *Forwarder) Forwarded() uint64 { return f.forwarded.Load() }

// Pump moves up to max messages (max <= 0 = until empty), returning the
// number moved.
func (f *Forwarder) Pump(max int) (int, error) {
	n := 0
	for max <= 0 || n < max {
		msg, ok, err := f.Src.Dequeue("forwarder")
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		ev := msg.Event
		if f.Transform != nil {
			ev = f.Transform(ev)
		}
		if ev != nil {
			if _, err := f.Dst.Enqueue(ev, queue.EnqueueOptions{Priority: f.Priority}); err != nil {
				// Leave the message for redelivery.
				_ = f.Src.Nack(msg.Receipt, 0)
				return n, fmt.Errorf("dispatch: forward enqueue: %w", err)
			}
			f.forwarded.Add(1)
		}
		if err := f.Src.Ack(msg.Receipt); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Service is an external delivery target (§2.2.d.ii.2 "forwarding
// messages to external services").
type Service interface {
	Deliver(*event.Event) error
}

// ServiceFunc adapts a function to Service.
type ServiceFunc func(*event.Event) error

// Deliver implements Service.
func (f ServiceFunc) Deliver(ev *event.Event) error { return f(ev) }

// RetryPolicy shapes redelivery to a flaky external service.
type RetryPolicy struct {
	// MaxRetries bounds in-process attempts per delivery (default 3).
	MaxRetries int
	// Backoff between in-process attempts (default 10ms, doubled each
	// retry).
	Backoff time.Duration
}

// ServiceBridge consumes a queue and delivers each message to an
// external service with retry/backoff; exhausted messages are nacked
// into the queue's redelivery/dead-letter flow.
type ServiceBridge struct {
	Q       *queue.Queue
	Svc     Service
	Policy  RetryPolicy
	derived atomic.Uint64
}

// Delivered reports successful deliveries.
func (b *ServiceBridge) Delivered() uint64 { return b.derived.Load() }

// PumpOnce drains the queue through the service, returning deliveries
// made.
func (b *ServiceBridge) PumpOnce() (int, error) {
	n := 0
	for {
		msg, ok, err := b.Q.Dequeue("service-bridge")
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		if b.deliverWithRetry(msg.Event) {
			b.derived.Add(1)
			if err := b.Q.Ack(msg.Receipt); err != nil {
				return n, err
			}
			n++
		} else {
			_ = b.Q.Nack(msg.Receipt, 0)
		}
	}
}

func (b *ServiceBridge) deliverWithRetry(ev *event.Event) bool {
	retries := b.Policy.MaxRetries
	if retries <= 0 {
		retries = 3
	}
	backoff := b.Policy.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for attempt := 0; attempt < retries; attempt++ {
		if err := b.Svc.Deliver(ev); err == nil {
			return true
		}
		if attempt < retries-1 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	return false
}
