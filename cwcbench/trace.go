package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cwc/internal/obs"
)

// tracer is the traced run's instrumentation, all of it outside the
// program: spans the loop records around its calls into the master, a
// WAL writer wrapper (wal.Options.WriterHook) and a byte-counting
// listener wrapper (server.Config.ListenerHook). It also owns the one
// obs.Registry the master and the WAL share.
type tracer struct {
	reg *obs.Registry

	wire atomic.Int64 // bytes read and written on the master's sockets

	mu         sync.Mutex
	spans      []span
	walWrites  []time.Duration
	walBytes   int64
	walSyncs   []time.Duration
	syncsTotal int64 // over the deployment's whole life, for the registry cross-check
}

func newTracer() *tracer { return &tracer{reg: obs.NewRegistry()} }

// span is one traced interval. parent is the index of the enclosing span
// in the written file, -1 for none.
type span struct {
	name       string
	key        string
	start, end time.Time
	parent     int
}

func (tr *tracer) span(name string, start, end time.Time, key string) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name: name, key: key, start: start, end: end, parent: -1})
	tr.mu.Unlock()
}

// reset drops what the warm-up recorded so the timed window starts clean.
func (tr *tracer) reset() {
	tr.mu.Lock()
	tr.spans, tr.walWrites, tr.walSyncs, tr.walBytes = nil, nil, nil, 0
	tr.mu.Unlock()
}

// round records a finished round's span and its partitions' spans. The
// report's event offsets are relative to the start of dispatch, which
// RunRound does not expose; dispatch is taken to end when the call
// returns, so partition spans may sit up to the round's post-dispatch
// overhead early.
func (tr *tracer) round(rr *roundRec, n int) {
	tr.span("round", rr.start, rr.end, fmt.Sprintf("r%d", n))
	origin := rr.end.Add(-rr.rep.Wall)
	type pk struct{ phone, job, part int }
	assigned := map[pk]time.Duration{}
	for _, e := range rr.rep.Events {
		k := pk{e.PhoneID, e.JobID, e.Partition}
		switch e.Kind {
		case "assign":
			assigned[k] = e.At
		case "result", "failure":
			if at, ok := assigned[k]; ok {
				tr.span("partition", origin.Add(at), origin.Add(e.At), fmt.Sprintf("j%d.p%d@%d", e.JobID, e.Partition, e.PhoneID))
			}
		}
	}
}

// walTap wraps a WAL segment file, timing writes and forwarded syncs.
type walTap struct {
	w  io.Writer
	tr *tracer
}

func (tr *tracer) wrapWAL(w io.Writer) io.Writer { return &walTap{w: w, tr: tr} }

func (t *walTap) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	end := time.Now()
	t.tr.mu.Lock()
	t.tr.walWrites = append(t.tr.walWrites, end.Sub(start))
	t.tr.walBytes += int64(n)
	t.tr.spans = append(t.tr.spans, span{name: "wal.write", start: start, end: end, parent: -1})
	t.tr.mu.Unlock()
	return n, err
}

func (t *walTap) Sync() error {
	s, ok := t.w.(interface{ Sync() error })
	if !ok {
		return nil
	}
	start := time.Now()
	err := s.Sync()
	end := time.Now()
	t.tr.mu.Lock()
	t.tr.walSyncs = append(t.tr.walSyncs, end.Sub(start))
	t.tr.syncsTotal++
	t.tr.spans = append(t.tr.spans, span{name: "wal.sync", start: start, end: end, parent: -1})
	t.tr.mu.Unlock()
	return err
}

// countListener counts every byte crossing the master's accepted sockets.
type countListener struct {
	net.Listener
	n *atomic.Int64
}

func (tr *tracer) wrapListener(ln net.Listener) net.Listener {
	return countListener{Listener: ln, n: &tr.wire}
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{Conn: c, n: l.n}, nil
}

type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// link adds the batch spans and gives every span its parent: a submit
// belongs to its batch, a round to the batch that encloses it, a
// partition to its round, a WAL write or sync to
// the submit or round that encloses it.
func (tr *tracer) link(lp *loop) []span {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	jobBatch := map[string]string{}
	for bi, b := range lp.batches {
		bk := fmt.Sprintf("b%d", bi)
		spans = append(spans, span{name: "batch", key: bk, start: b.submitStart, end: b.end, parent: -1})
		for _, j := range b.jobs {
			jobBatch[fmt.Sprintf("j%d", j.id)] = bk
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	batchIdx := map[string]int{}
	var batches, submits, rounds []int
	for i, s := range spans {
		switch s.name {
		case "batch":
			batchIdx[s.key] = i
			batches = append(batches, i)
		case "submit":
			submits = append(submits, i)
		case "round":
			rounds = append(rounds, i)
		}
	}
	enclosing := func(cands []int, s span) int {
		// cands are sorted by start; the latest-starting candidate that
		// starts before s is the innermost one that can enclose it.
		i := sort.Search(len(cands), func(i int) bool { return spans[cands[i]].start.After(s.start) })
		for k := i - 1; k >= 0 && k >= i-submitters-1; k-- {
			if c := spans[cands[k]]; !c.end.Before(s.end) {
				return cands[k]
			}
		}
		return -1
	}
	for i := range spans {
		s := &spans[i]
		switch s.name {
		case "submit":
			if p, ok := batchIdx[jobBatch[s.key]]; ok {
				s.parent = p
			}
		case "round":
			s.parent = enclosing(batches, *s)
		case "partition":
			s.parent = enclosing(rounds, *s)
		case "wal.write", "wal.sync":
			if s.parent = enclosing(submits, *s); s.parent < 0 {
				s.parent = enclosing(rounds, *s)
			}
		}
	}
	return spans
}

// selfTimes returns, per span name, the total duration and the self time:
// each span's duration minus the part of it its children cover.
func selfTimes(spans []span) (total, self map[string]time.Duration) {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i, s := range spans {
		d := s.end.Sub(s.start)
		total[s.name] += d
		self[s.name] += d - coveredWithin(children[i], s.start, s.end)
	}
	return total, self
}

// writeSpans writes one JSON object per span, times in microseconds from
// the first span's start.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var origin time.Time
	if len(spans) > 0 {
		origin = spans[0].start
	}
	type out struct {
		ID      int     `json:"id"`
		Parent  int     `json:"parent"`
		Name    string  `json:"name"`
		Key     string  `json:"key,omitempty"`
		StartUs float64 `json:"start_us"`
		EndUs   float64 `json:"end_us"`
	}
	for i, s := range spans {
		if err := enc.Encode(out{i, s.parent, s.name, s.key, us(s.start.Sub(origin)), us(s.end.Sub(origin))}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unexplained returns, per batch, the share of its makespan that the
// critical path does not account for: the submit phase not overlapped by
// a round, plus every RunRound call (round overhead + round wall, which
// includes the loop's polling while it waits for the round to take its
// batch). The remainder is the loop's own bookkeeping between calls.
func unexplained(lp *loop) []float64 {
	var ivs []interval
	for _, b := range lp.batches {
		ivs = append(ivs, interval{b.submitStart, b.submitEnd})
	}
	for _, r := range lp.rounds {
		ivs = append(ivs, interval{r.start, r.end})
	}
	var out []float64
	for _, b := range lp.batches {
		if mk := b.makespan(); mk > 0 {
			out = append(out, 1-float64(coveredWithin(ivs, b.submitStart, b.end))/float64(mk))
		}
	}
	return out
}
