package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cwc/internal/cluster"
	"cwc/internal/server"
	"cwc/internal/wal"
)

const (
	// submitters is the closed loop's client count: each waits for its
	// Submit ack before sending the next job (≤ nproc on the 2-core
	// reference box).
	submitters = 2
	// pollEvery paces the loop's PendingItems polls while it waits for
	// a round to take its batch.
	pollEvery = 200 * time.Microsecond
	// walCompactKB is the shipped -wal-compact-kb default.
	walCompactKB = 4096
)

// deployment is one running master and fleet, plus the WAL it owns.
type deployment struct {
	c      *cluster.Cluster
	log    *wal.Log
	walDir string
	tr     *tracer // nil: untraced
	// warmRounds counts the warm-up batch's RunRound calls.
	warmRounds int
}

// deploy starts the workload's master and fleet, measures bandwidths and
// runs one untimed warm-up batch (warmupBatch of the pool's first) that
// profiles every task. With tr set,
// one obs.Registry feeds both the master and the WAL, and the WAL writer
// and the master's listener are wrapped by the tracer.
func deploy(ctx context.Context, w *workload, walDir string, warmup []*jobSpec, tr *tracer) (*deployment, time.Duration, error) {
	start := time.Now()
	d := &deployment{tr: tr}
	cfg := server.Config{}
	if tr != nil {
		cfg.Metrics = tr.reg
		cfg.ListenerHook = tr.wrapListener
	}
	if w.durable {
		opts := wal.Options{Sync: wal.SyncAlways, CompactBytes: walCompactKB * 1024}
		if tr != nil {
			opts.Metrics = tr.reg
			opts.WriterHook = tr.wrapWAL
		}
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, 0, err
		}
		log, err := wal.Open(walDir, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("opening WAL: %w", err)
		}
		d.log, d.walDir, cfg.WAL = log, walDir, log
	}
	c, err := cluster.Start(ctx, cluster.Options{Phones: w.phones, DelayPerKB: w.delayPerKB, Server: cfg})
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("starting cluster: %w", err)
	}
	d.c = c
	if err := c.Master.MeasureBandwidths(ctx); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("measuring bandwidths: %w", err)
	}
	lp := newLoop(w, d, [][]*jobSpec{warmupBatch(warmup)})
	if err := lp.drive(ctx, time.Now(), 1); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up batch: %w", err)
	}
	if n := lp.check(); n > 0 {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up batch: %d failed jobs: %v", n, lp.failures)
	}
	d.warmRounds = len(lp.rounds)
	return d, time.Since(start), nil
}

func (d *deployment) stop() {
	if d.c != nil {
		d.c.Stop()
	}
	if d.log != nil {
		_ = d.log.Close() // the run is over; its log is deleted next
	}
	if d.walDir != "" {
		_ = os.RemoveAll(d.walDir)
	}
}

// jobRec is one submitted job's life as the loop saw it.
type jobRec struct {
	spec   *jobSpec
	batch  *batchRec
	id     int
	submit time.Time // Submit called
	ack    time.Time // Submit returned
	done   time.Time // a RunRound return listed the job as completed
	err    string    // non-empty: failed (Submit error, lost, mismatch)
}

// batchRec is one submitted batch.
type batchRec struct {
	jobs        []*jobRec
	bytes       int64
	submitStart time.Time
	submitEnd   time.Time
	left        int       // jobs neither done nor failed
	end         time.Time // when the last of them finished
}

// settle marks one of the batch's jobs finished at t.
func (b *batchRec) settle(t time.Time) {
	b.left--
	if b.left == 0 {
		b.end = t
	}
}

func (b *batchRec) makespan() time.Duration { return b.end.Sub(b.submitStart) }

// roundRec is one RunRound call.
type roundRec struct {
	start, end time.Time
	rep        *server.RoundReport
	// Traced runs only: the packing snapshot and the fleet's summed
	// worker ExecMs over the round.
	sched  *server.SchedSnapshot
	execMs float64
}

func (r *roundRec) overhead() time.Duration { return r.end.Sub(r.start) - r.rep.Wall }

// loop runs the closed loop against one deployment: it submits
// batches from the pool with two submitters and is the master's
// scheduling instant, calling RunRound until every batch is aggregated.
type loop struct {
	w       *workload
	d       *deployment
	pool    [][]*jobSpec
	next    int // pool index of the next batch
	batches []*batchRec
	rounds  []*roundRec
	live    map[int]*jobRec // submitted, not yet done or failed
	all     []*jobRec
	// failures lists what went wrong, one line per failed job.
	failures []string
}

func newLoop(w *workload, d *deployment, pool [][]*jobSpec) *loop {
	return &loop{w: w, d: d, pool: pool, live: map[int]*jobRec{}}
}

// submission is a batch being submitted by the two submitters.
type submission struct {
	b  *batchRec
	wg sync.WaitGroup
}

func (s *submission) wait() { s.wg.Wait() }

// submit starts submitting the next pool batch.
func (lp *loop) submit() *submission {
	batch := lp.pool[lp.next%len(lp.pool)]
	lp.next++
	b := &batchRec{bytes: batchBytes(batch), submitStart: time.Now()}
	b.jobs = make([]*jobRec, len(batch))
	for i, js := range batch {
		b.jobs[i] = &jobRec{spec: js, batch: b}
	}
	s := &submission{b: b}
	m := lp.d.c.Master
	tr := lp.d.tr
	for g := 0; g < submitters; g++ {
		s.wg.Add(1)
		go func(g int) {
			defer s.wg.Done()
			for i := g; i < len(b.jobs); i += submitters {
				j := b.jobs[i]
				j.submit = time.Now()
				id, err := m.Submit(j.spec.task, j.spec.input, j.spec.atomic)
				j.ack = time.Now()
				if err != nil {
					j.err = fmt.Sprintf("submit: %v", err)
					continue
				}
				j.id = id
				if tr != nil {
					tr.span("submit", j.submit, j.ack, fmt.Sprintf("j%d", id))
				}
			}
		}(g)
	}
	return s
}

// collect folds a finished submission into the loop's state.
func (lp *loop) collect(s *submission) {
	s.wait()
	for _, j := range s.b.jobs {
		if j.ack.After(s.b.submitEnd) {
			s.b.submitEnd = j.ack
		}
	}
	lp.batches = append(lp.batches, s.b)
	for _, j := range s.b.jobs {
		lp.all = append(lp.all, j)
		if j.err != "" {
			lp.failures = append(lp.failures, j.err)
			continue
		}
		lp.live[j.id] = j
		s.b.left++
	}
	if s.b.left == 0 {
		s.b.end = s.b.submitEnd
	}
}

// drive submits up to maxBatches batches, starting no new batch after
// until, and returns once every submitted job is done or failed.
func (lp *loop) drive(ctx context.Context, until time.Time, maxBatches int) error {
	submitted := 0
	next := func() *submission {
		if submitted >= maxBatches || (submitted > 0 && !time.Now().Before(until)) {
			return nil
		}
		submitted++
		return lp.submit()
	}
	sub := next()
	for {
		if sub != nil {
			lp.collect(sub)
			sub = nil
		}
		if len(lp.live) == 0 {
			if sub = next(); sub == nil {
				return nil
			}
			continue
		}
		if lp.d.c.Master.PendingItems() == 0 {
			// Live jobs but nothing left to schedule: they can never
			// finish (terminal aggregation failure or dead letter).
			lp.failLive("lost: no pending work left for it")
			continue
		}
		rr := &roundRec{}
		done := make(chan error, 1)
		lp.beginRound(rr)
		go func() {
			var err error
			rr.rep, err = lp.d.c.Master.RunRound(ctx)
			rr.end = time.Now()
			done <- err
		}()
		if lp.w.durable {
			// Pipelining: once the round has taken its batch, submit the
			// next one beside the round's dispatch and folds.
			lp.waitTaken(done)
			sub = next()
		}
		err := <-done
		if err != nil {
			if sub != nil {
				lp.collect(sub)
			}
			return fmt.Errorf("round %d: %w", len(lp.rounds)+1, err)
		}
		lp.endRound(rr)
	}
}

// waitTaken polls until the running round has drained the pending queue
// (or has already returned).
func (lp *loop) waitTaken(done chan error) {
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for lp.d.c.Master.PendingItems() > 0 {
		select {
		case err := <-done:
			done <- err // leave it for the caller
			return
		case <-t.C:
		}
	}
}

func (lp *loop) beginRound(rr *roundRec) {
	if lp.d.tr != nil {
		rr.execMs = -lp.fleetExecMs()
	}
	rr.start = time.Now()
}

func (lp *loop) endRound(rr *roundRec) {
	lp.rounds = append(lp.rounds, rr)
	for _, id := range rr.rep.CompletedJobs {
		j, ok := lp.live[id]
		if !ok {
			continue
		}
		j.done = rr.end
		delete(lp.live, id)
		j.batch.settle(rr.end)
	}
	if tr := lp.d.tr; tr != nil {
		rr.execMs += lp.fleetExecMs()
		rr.sched = lp.d.c.Master.LastSched()
		tr.round(rr, len(lp.rounds))
	}
}

func (lp *loop) fleetExecMs() float64 {
	total := 0.0
	for _, w := range lp.d.c.Workers {
		total += w.Stats().ExecMs
	}
	return total
}

func (lp *loop) failLive(reason string) {
	m := lp.d.c.Master
	for id, j := range lp.live {
		why := reason
		if f, ok := m.JobFailure(id); ok {
			why = "job failure: " + f
		}
		for _, dl := range m.DeadLetters() {
			if dl.JobID == id {
				why = "dead letter: " + dl.Reason
			}
		}
		j.err = why
		lp.failures = append(lp.failures, fmt.Sprintf("job %d: %s", id, why))
		delete(lp.live, id)
		j.batch.settle(time.Now())
	}
}

// check compares every completed job's aggregated result byte for byte
// with its reference and returns the number of failed jobs.
func (lp *loop) check() int {
	m := lp.d.c.Master
	failed := 0
	for _, j := range lp.all {
		if j.err == "" {
			got, ok := m.Result(j.id)
			switch {
			case !ok:
				j.err = "no result"
			case !bytes.Equal(got, j.spec.want):
				j.err = fmt.Sprintf("result %.40q differs from reference %.40q", got, j.spec.want)
			}
			if j.err != "" {
				lp.failures = append(lp.failures, fmt.Sprintf("job %d: %s", j.id, j.err))
			}
		}
		if j.err != "" {
			failed++
		}
	}
	return failed
}

// walDirFor names a fresh WAL directory under the run's directory.
func walDirFor(runDir string, n int) string {
	return filepath.Join(runDir, fmt.Sprintf("wal-%d", n))
}
