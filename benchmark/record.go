package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/client"
)

// class names one kind of timed thing: a logical operation or a wire
// statement.
type class int

const (
	// OLTP operations.
	clRead class = iota
	clAdhocRead
	clPayment
	clNewOrder
	clOrderStatus
	// Statements inside OLTP transactions.
	clBegin
	clWriteStmt
	clCommit
	// One pass over the 17 analytic queries on one connection.
	clPass
	// The 50-row insert and the dashboard query of ingest.
	clInsert
	clDash
	// Analytic queries q01…q17 are clQuery+0 … clQuery+16.
	clQuery
	numClasses = clQuery + 17
)

var classNames = func() [numClasses]string {
	n := [numClasses]string{
		clRead: "read", clAdhocRead: "adhoc_read", clPayment: "payment", clNewOrder: "new_order",
		clOrderStatus: "order_status", clBegin: "begin", clWriteStmt: "write_stmt", clCommit: "commit",
		clPass: "pass", clInsert: "insert", clDash: "dash",
	}
	for q := 0; q < 17; q++ {
		n[clQuery+class(q)] = fmt.Sprintf("q%02d", q+1)
	}
	return n
}()

// sample is one timed completion. wait and exec are the server's own
// figures from the Done frame (zero for operations of several
// statements and for transaction control, which the server does not
// time).
type sample struct {
	end             time.Duration // since the window opened
	lat, wait, exec time.Duration
}

// window is the measured interval and, on a traced run, the slicing
// into alternately traced and untraced seconds.
type window struct {
	t0, t1 time.Time
	trace  bool
}

const traceSlice = time.Second

func (w window) contains(t time.Time) bool { return !t.Before(w.t0) && t.Before(w.t1) }

// traced reports whether spans are recorded at t: on a traced run,
// every other slice of the window, so that the untraced slices of the
// same run give the throughput to compare with.
func (w window) traced(t time.Time) bool {
	return w.trace && w.contains(t) && (t.Sub(w.t0)/traceSlice)%2 == 0
}

// span is one traced interval. Start and End are nanoseconds since the
// window opened. Spans of one operation share Op; Parent is 0 for the
// operation's root.
type span struct {
	ID, Parent, Op uint32
	Name           string
	Start, End     int64
}

// maxSpans bounds one client's span buffer; later spans are counted,
// not kept.
const maxSpans = 200_000

// recorder collects one client's samples and spans. It is used by that
// client's goroutine only.
type recorder struct {
	win     window
	idBase  uint32
	samples [numClasses][]sample
	// done[i] counts operations completed in traced (0) and untraced
	// (1) slices of the window.
	done      [2]int
	attempted int
	failed    int
	spans     []span
	dropped   int
	nextID    uint32
	curOp     uint32 // root span of the operation in progress, 0 if not traced
}

func newRecorder(win window, client int) *recorder {
	return &recorder{win: win, idBase: uint32(client) << 28}
}

// add records a completion if it ended inside the window.
func (r *recorder) add(c class, start, end time.Time, res client.Result) {
	if r.win.contains(end) {
		r.samples[c] = append(r.samples[c], sample{end.Sub(r.win.t0), end.Sub(start), res.QueueWait, res.ExecTime})
	}
}

// opDone counts a completed logical operation towards throughput.
func (r *recorder) opDone(end time.Time) {
	if r.win.contains(end) {
		if r.win.traced(end) {
			r.done[0]++
		} else {
			r.done[1]++
		}
	}
}

func (r *recorder) newSpan(parent, op uint32, name string, start, end time.Time) uint32 {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	r.nextID++
	id := r.idBase | r.nextID
	if op == 0 {
		op = id
	}
	r.spans = append(r.spans, span{id, parent, op, name, int64(start.Sub(r.win.t0)), int64(end.Sub(r.win.t0))})
	return id
}

// beginOp opens the root span of a logical operation when its start
// falls in a traced slice.
func (r *recorder) beginOp(c class, start time.Time) {
	r.curOp = 0
	if r.win.traced(start) {
		r.curOp = r.newSpan(0, 0, "client."+classNames[c], start, start)
	}
}

// endOp closes the root span.
func (r *recorder) endOp(end time.Time) {
	if r.curOp != 0 {
		r.spans[int(r.curOp&^r.idBase)-1].End = int64(end.Sub(r.win.t0))
		r.curOp = 0
	}
}

// stmtSpan records one statement of the operation in progress: a child
// of the root, with the server's queue wait and execution time laid
// back to back under it from the statement's start. Their lengths are
// the server's; their position inside the statement is nominal. The
// statement's self time is wire, socket and codec.
func (r *recorder) stmtSpan(name string, start, end time.Time, res client.Result) {
	if r.curOp == 0 {
		return
	}
	id := r.newSpan(r.curOp, r.curOp, "stmt."+name, start, end)
	if id == 0 {
		return
	}
	ws := start.Add(res.QueueWait)
	r.newSpan(id, r.curOp, "sched.wait", start, ws)
	r.newSpan(id, r.curOp, "server.exec", ws, ws.Add(res.ExecTime))
}

// merged pools the samples of several clients.
func merged(recs []*recorder, c class) []sample {
	var out []sample
	for _, r := range recs {
		out = append(out, r.samples[c]...)
	}
	return out
}

// sortedMS returns f of each sample in milliseconds, sorted.
func sortedMS(s []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(f(x)) / 1e6
	}
	sort.Float64s(out)
	return out
}

func latOf(s sample) time.Duration  { return s.lat }
func waitOf(s sample) time.Duration { return s.wait }
func execOf(s sample) time.Duration { return s.exec }

// overheadOf is what the client saw beyond the server's own figures:
// wire, socket and codec on both sides.
func overheadOf(s sample) time.Duration { return s.lat - s.wait - s.exec }

// writeSpans writes the clients' spans as one JSON array.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[")
	first := true
	for _, r := range recs {
		for _, s := range r.spans {
			if !first {
				w.WriteString(",")
			}
			first = false
			fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
				s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
		}
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
