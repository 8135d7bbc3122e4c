// Package sched implements the mixed-workload manager the tutorial calls
// out for HANA (Psaroudakis et al. [32]): OLTP requests are
// latency-critical and short; OLAP queries are throughput-oriented and
// long. A shared worker pool gives OLTP strict priority and bounds OLAP
// concurrency with admission control, so analytic floods cannot starve
// transaction processing — the "battle of data freshness, flexibility,
// and scheduling".
//
// Since PR 8 the manager is the beating heart of the oadbd network
// server (internal/server): every statement arriving over the wire is
// classified and submitted to its lane. Submission is context-aware —
// RunCtx abandons a task still waiting in its queue when the caller's
// context is cancelled or the per-class queue timeout elapses, so a
// dropped connection or a draining server never blocks on queued work.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Class partitions requests by workload type.
type Class int

// Workload classes.
const (
	OLTP Class = iota
	OLAP
)

// String names the class.
func (c Class) String() string {
	if c == OLTP {
		return "OLTP"
	}
	return "OLAP"
}

// ErrClosed reports submission to a stopped manager.
var ErrClosed = errors.New("sched: manager closed")

// ErrQueueFull is the structured load-shedding rejection: the class's
// queue is at its depth limit and the task was not enqueued. Callers
// should surface backpressure (retry-with-backoff, "server busy")
// rather than block.
var ErrQueueFull = errors.New("sched: queue full")

// ErrQueueTimeout reports a task abandoned after waiting in its class
// queue longer than the configured bound without starting execution.
var ErrQueueTimeout = errors.New("sched: queue wait timed out")

// Config tunes the manager.
type Config struct {
	// Workers is the pool size (default: 4).
	Workers int
	// MaxOLAP bounds concurrently executing OLAP tasks (admission
	// control; default: half the workers, at least 1).
	MaxOLAP int
	// QueueDepth bounds each queue (default: 1024).
	QueueDepth int
	// OLTPQueueDepth / OLAPQueueDepth override QueueDepth per class
	// when > 0.
	OLTPQueueDepth int
	OLAPQueueDepth int
	// OLTPQueueTimeout / OLAPQueueTimeout bound how long a task of that
	// class may wait in its queue before RunCtx abandons it with
	// ErrQueueTimeout. 0 means no bound. The timeout covers queue wait
	// only — once a worker claims the task it runs to completion (pass
	// a context into the task itself to bound execution).
	OLTPQueueTimeout time.Duration
	OLAPQueueTimeout time.Duration
}

func (c Config) queueDepth(class Class) int {
	d := c.QueueDepth
	if class == OLTP && c.OLTPQueueDepth > 0 {
		d = c.OLTPQueueDepth
	}
	if class == OLAP && c.OLAPQueueDepth > 0 {
		d = c.OLAPQueueDepth
	}
	return d
}

// QueueTimeout returns the configured queue-wait bound for class (0 =
// none).
func (c Config) QueueTimeout(class Class) time.Duration {
	if class == OLTP {
		return c.OLTPQueueTimeout
	}
	return c.OLAPQueueTimeout
}

// Stats aggregates per-class counters.
type Stats struct {
	Submitted uint64
	Completed uint64
	// Rejected counts load-shedding at enqueue (queue full or closed).
	Rejected uint64
	// Abandoned counts tasks that left the queue without running:
	// caller context cancelled or queue timeout elapsed while waiting.
	Abandoned uint64
	// WaitNS and ExecNS accumulate queue-wait and execution times.
	WaitNS uint64
	ExecNS uint64
}

// Manager schedules tasks over a fixed worker pool.
type Manager struct {
	cfg      Config
	oltpQ    chan *task
	olapQ    chan *task
	olapSem  chan struct{}
	quit     chan struct{}
	stopped  atomic.Bool
	wg       sync.WaitGroup
	statsMu  sync.Mutex
	stats    [2]Stats
	inflight sync.WaitGroup
}

// Task claim states: a task in a queue is up for grabs between exactly
// two parties — the worker that pops it (claims and executes) and the
// submitter abandoning the wait (context cancelled / queue timeout).
// Whoever wins the CAS owns the task's accounting.
const (
	taskPending int32 = iota
	taskClaimed
	taskAbandoned
)

type task struct {
	class    Class
	fn       func()
	enqueued time.Time
	done     chan struct{}
	state    atomic.Int32
}

// New starts a manager.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxOLAP <= 0 {
		cfg.MaxOLAP = cfg.Workers / 2
		if cfg.MaxOLAP == 0 {
			cfg.MaxOLAP = 1
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	m := &Manager{
		cfg:     cfg,
		oltpQ:   make(chan *task, cfg.queueDepth(OLTP)),
		olapQ:   make(chan *task, cfg.queueDepth(OLAP)),
		olapSem: make(chan struct{}, cfg.MaxOLAP),
		quit:    make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Config returns the resolved configuration (defaults applied).
func (m *Manager) Config() Config { return m.cfg }

// worker drains OLTP strictly before OLAP.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		if m.stopped.Load() {
			return
		}
		// Strict priority: drain OLTP first without blocking.
		select {
		case t := <-m.oltpQ:
			m.claimAndExecute(t)
			continue
		default:
		}
		// Block on either queue; re-check OLTP preference on wake.
		select {
		case <-m.quit:
			return
		case t := <-m.oltpQ:
			m.claimAndExecute(t)
		case t := <-m.olapQ:
			// Admission control: if OLAP is saturated, requeue would
			// reorder; instead the worker carries this task until a
			// semaphore slot frees (bounding OLAP-executing workers at
			// MaxOLAP). While it waits it keeps serving the OLTP queue —
			// a sem-blocked worker must not starve the latency-critical
			// lane. The task stays abandonable throughout: the claim
			// happens only after the semaphore, so the admission wait
			// counts as queue wait for cancellation purposes.
			for {
				select {
				case m.olapSem <- struct{}{}:
					m.claimAndExecute(t)
					<-m.olapSem
				case u := <-m.oltpQ:
					m.claimAndExecute(u)
					continue
				}
				break
			}
		}
	}
}

// claimAndExecute runs t unless the submitter abandoned it first.
func (m *Manager) claimAndExecute(t *task) {
	if !t.state.CompareAndSwap(taskPending, taskClaimed) {
		return // abandoned: the submitter already did the accounting
	}
	m.execute(t)
}

func (m *Manager) execute(t *task) {
	wait := time.Since(t.enqueued)
	start := time.Now()
	t.fn()
	exec := time.Since(start)
	m.statsMu.Lock()
	s := &m.stats[t.class]
	s.Completed++
	s.WaitNS += uint64(wait.Nanoseconds())
	s.ExecNS += uint64(exec.Nanoseconds())
	m.statsMu.Unlock()
	close(t.done)
	m.inflight.Done()
}

// Submit enqueues fn and returns a wait function. It rejects with
// ErrQueueFull when the class queue is at its depth limit (load
// shedding) and ErrClosed after Close.
func (m *Manager) Submit(class Class, fn func()) (wait func(), err error) {
	t, err := m.enqueue(class, fn)
	if err != nil {
		return nil, err
	}
	return func() { <-t.done }, nil
}

func (m *Manager) enqueue(class Class, fn func()) (*task, error) {
	if m.stopped.Load() {
		return nil, ErrClosed
	}
	t := &task{class: class, fn: fn, enqueued: time.Now(), done: make(chan struct{})}
	q := m.oltpQ
	if class == OLAP {
		q = m.olapQ
	}
	m.inflight.Add(1)
	select {
	case q <- t:
		m.statsMu.Lock()
		m.stats[class].Submitted++
		m.statsMu.Unlock()
		return t, nil
	default:
		m.inflight.Done()
		m.statsMu.Lock()
		m.stats[class].Rejected++
		m.statsMu.Unlock()
		return nil, ErrQueueFull
	}
}

// Run submits fn and waits uncancellably for completion. Prefer RunCtx
// on any path that can be abandoned (server connections, drains).
func (m *Manager) Run(class Class, fn func()) error {
	wait, err := m.Submit(class, fn)
	if err != nil {
		return err
	}
	wait()
	return nil
}

// RunCtx submits fn to its class queue and waits for completion,
// abandoning the wait if ctx is cancelled or the class's queue timeout
// elapses while the task is still queued. An abandoned task never runs:
// RunCtx returns ctx.Err() or ErrQueueTimeout and the queue slot is
// skipped by workers. Once a worker has claimed the task, RunCtx waits
// for it to finish regardless of ctx — bound execution time by deriving
// the task's own work from ctx.
func (m *Manager) RunCtx(ctx context.Context, class Class, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t, err := m.enqueue(class, fn)
	if err != nil {
		return err
	}
	var timeout <-chan time.Time
	if d := m.cfg.QueueTimeout(class); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return m.abandon(t, ctx.Err())
	case <-timeout:
		return m.abandon(t, ErrQueueTimeout)
	}
}

// abandon tries to withdraw a queued task; if a worker won the claim
// race the task is already running and abandon waits it out.
func (m *Manager) abandon(t *task, cause error) error {
	if t.state.CompareAndSwap(taskPending, taskAbandoned) {
		m.statsMu.Lock()
		m.stats[t.class].Abandoned++
		m.statsMu.Unlock()
		m.inflight.Done()
		return cause
	}
	// Lost the race: a worker is executing fn right now. Completion is
	// imminent (or bounded by fn's own context); report success.
	<-t.done
	return nil
}

// QueueLen returns the number of tasks in class's queue. An abandoned
// task still counts until a worker pops and skips it.
func (m *Manager) QueueLen(class Class) int {
	if class == OLAP {
		return len(m.olapQ)
	}
	return len(m.oltpQ)
}

// Stats returns a copy of the class's counters.
func (m *Manager) Stats(class Class) Stats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return m.stats[class]
}

// Close drains in-flight tasks and stops the workers. Submissions after
// Close are rejected. Queued tasks still run to completion (their
// waiters are released): Close executes stragglers inline, because
// workers stop pulling once the manager is marked stopped.
func (m *Manager) Close() {
	if m.stopped.Swap(true) {
		<-m.quit // another Close is draining; wait for it
		m.wg.Wait()
		return
	}
	drained := make(chan struct{})
	go func() {
		m.inflight.Wait()
		close(drained)
	}()
	for {
		select {
		case t := <-m.oltpQ:
			m.claimAndExecute(t)
		case t := <-m.olapQ:
			m.claimAndExecute(t)
		case <-drained:
			close(m.quit)
			m.wg.Wait()
			return
		}
	}
}
