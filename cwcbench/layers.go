package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"cwc/internal/core"
	"cwc/internal/device"
	"cwc/internal/protocol"
	"cwc/internal/server"
	"cwc/internal/tasks"
)

// The micro-measurements below time single layers through their public
// surface, on this run's own inputs and partition sizes. They run after
// the traced window, with the deployment stopped, so nothing else
// competes for the CPU.

// taskLayer is the tasks layer measured single-threaded.
type taskLayer struct {
	msPerKB       map[string]float64 // Process time per input KB, per task
	processMBs    float64            // all tasks: input MB per Process second
	aggregateUs   float64            // Aggregate time per breakable job
	digestNsPerKB float64            // Digest time per KB of result payload
	results       [][]byte           // partition results, for the codec measurement
}

// measureTasks times Process over every job of batch, then splits each
// breakable job into as many partitions as the traced rounds gave it and
// times Aggregate over their results and Digest over every result.
func measureTasks(batch []*jobSpec, parts func(js *jobSpec) int) (*taskLayer, error) {
	tl := &taskLayer{msPerKB: map[string]float64{}}
	busy := map[string]time.Duration{}
	kb := map[string]float64{}
	var allBusy time.Duration
	var allBytes int64
	for _, js := range batch {
		var ck tasks.Checkpoint
		start := time.Now()
		if _, err := js.task.Process(context.Background(), js.input, &ck); err != nil {
			return nil, fmt.Errorf("process %s: %w", js.task.Name(), err)
		}
		d := time.Since(start)
		busy[js.task.Name()] += d
		kb[js.task.Name()] += float64(len(js.input)) / 1024
		allBusy += d
		allBytes += int64(len(js.input))
	}
	for name, d := range busy {
		tl.msPerKB[name] = ms(d) / kb[name]
	}
	tl.processMBs = float64(allBytes) / 1e6 / allBusy.Seconds()

	var aggBusy time.Duration
	aggJobs := 0
	for _, js := range batch {
		tl.results = append(tl.results, js.want)
		b, ok := js.task.(tasks.Breakable)
		if !ok {
			continue
		}
		n := parts(js)
		if n < 1 {
			n = 1
		}
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = float64(len(js.input)) / 1024 / float64(n)
		}
		pieces, err := b.Split(js.input, sizes)
		if err != nil {
			return nil, fmt.Errorf("split %s: %w", js.task.Name(), err)
		}
		var partials [][]byte
		for _, p := range pieces {
			var ck tasks.Checkpoint
			r, err := js.task.Process(context.Background(), p, &ck)
			if err != nil {
				return nil, fmt.Errorf("process %s partition: %w", js.task.Name(), err)
			}
			partials = append(partials, r)
		}
		tl.results = append(tl.results, partials...)
		const reps = 20
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := b.Aggregate(partials); err != nil {
				return nil, fmt.Errorf("aggregate %s: %w", js.task.Name(), err)
			}
		}
		aggBusy += time.Since(start) / reps
		aggJobs++
	}
	if aggJobs > 0 {
		tl.aggregateUs = us(aggBusy) / float64(aggJobs)
	}

	var digestKB float64
	start := time.Now()
	const reps = 10
	for r := 0; r < reps; r++ {
		for _, res := range tl.results {
			_ = tasks.Digest(res)
		}
	}
	for _, res := range tl.results {
		digestKB += float64(len(res)) / 1024
	}
	tl.digestNsPerKB = float64(time.Since(start).Nanoseconds()) / reps / digestKB
	return tl, nil
}

// codecLayer is the wire codec measured over net.Pipe.
type codecLayer struct {
	sendNsPerKB, recvNsPerKB, allocPerPayloadB float64
}

// measureCodec times protocol.Conn.Send and Recv on assign and result
// frames: one assign per traced partition (its input capped at the
// master's chunk size, as the master sends it) and one result per
// partition result.
func measureCodec(assignKB []float64, input []byte, results [][]byte, chunkKB int) (*codecLayer, error) {
	var msgs []*protocol.Message
	var payload int64
	for i, kb := range assignKB {
		n := int(kb * 1024)
		if n > chunkKB*1024 {
			n = chunkKB * 1024
		}
		if n > len(input) {
			n = len(input)
		}
		msgs = append(msgs, &protocol.Message{
			Type: protocol.TypeAssign, JobID: i + 1, Partition: i % 4, Attempt: int64(i + 1),
			Span: fmt.Sprintf("j%d", i+1), Task: "primecount", Input: input[:n], TotalLen: int64(n),
		})
		payload += int64(n)
	}
	for i, r := range results {
		msgs = append(msgs, &protocol.Message{
			Type: protocol.TypeResult, JobID: i + 1, Attempt: int64(i + 1), Span: fmt.Sprintf("j%d", i+1),
			Result: r, ExecMs: 12.5, ProcessedKB: 64, Digest: tasks.Digest(r),
			Epoch: 0, // replication is off in every workload, so workers stamp epoch 0
		})
		payload += int64(len(r))
	}
	if payload == 0 {
		return nil, fmt.Errorf("codec: no payload to measure")
	}
	payloadKB := float64(payload) / 1024

	// Capture the encoded frames once, untimed, to replay for Recv.
	raw, err := sendAll(msgs, func(r io.Reader) []byte {
		buf, _ := io.ReadAll(r) // ends when the sender closes
		return buf
	}, nil)
	if err != nil {
		return nil, err
	}

	// Send: the far end discards what arrives.
	var before, after runtime.MemStats
	var sendDur time.Duration
	runtime.ReadMemStats(&before)
	if _, err := sendAll(msgs, func(r io.Reader) []byte {
		_, _ = io.Copy(io.Discard, r)
		return nil
	}, &sendDur); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	sendAlloc := after.TotalAlloc - before.TotalAlloc

	// Recv: the far end writes the captured frames.
	a, b := net.Pipe()
	go func() {
		_, _ = a.Write(raw) // fails only once the reader has closed
		a.Close()
	}()
	recv := protocol.NewConn(b)
	runtime.ReadMemStats(&before)
	start := time.Now()
	for range msgs {
		if _, err := recv.Recv(); err != nil {
			b.Close()
			return nil, err
		}
	}
	recvDur := time.Since(start)
	runtime.ReadMemStats(&after)
	b.Close()
	recvAlloc := after.TotalAlloc - before.TotalAlloc

	return &codecLayer{
		sendNsPerKB:      float64(sendDur.Nanoseconds()) / payloadKB,
		recvNsPerKB:      float64(recvDur.Nanoseconds()) / payloadKB,
		allocPerPayloadB: float64(sendAlloc+recvAlloc) / float64(payload),
	}, nil
}

// sendAll sends msgs over one end of a net.Pipe while drain consumes the
// other, timing the sends into dur when it is set, and returns what drain
// returned.
func sendAll(msgs []*protocol.Message, drain func(io.Reader) []byte, dur *time.Duration) ([]byte, error) {
	a, b := net.Pipe()
	out := make(chan []byte, 1)
	go func() { out <- drain(b) }()
	conn := protocol.NewConn(a)
	start := time.Now()
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			a.Close()
			<-out
			return nil, err
		}
	}
	if dur != nil {
		*dur = time.Since(start)
	}
	a.Close()
	return <-out, nil
}

// rebuildInstance reconstructs a round's scheduling instance from the
// outside: phones from Master.Phones, jobs from the round's packing
// snapshot (summed partition sizes) and the submitted job specs, and
// per-KB costs from the host's Process speed scaled by 1 GHz over the
// phone clock, plus the emulated per-KB delay the phone runs with.
func rebuildInstance(phones []server.PhoneInfo, specs map[string]device.Spec, snap *server.SchedSnapshot,
	jobs map[int]*jobRec, msPerKB map[string]float64, delay time.Duration) *core.Instance {
	sizes := map[int]float64{}
	for _, p := range snap.Phones {
		for _, a := range p.Assignments {
			if jobs[a.JobID] != nil {
				sizes[a.JobID] += a.SizeKB
			}
		}
	}
	ids := make([]int, 0, len(sizes))
	for id := range sizes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	inst := &core.Instance{}
	for _, p := range phones {
		inst.Phones = append(inst.Phones, core.Phone{ID: p.ID, BMsPerKB: p.BMsPerKB, RAMKB: float64(p.RAMMB) * 1024})
	}
	for idx, id := range ids {
		js := jobs[id].spec
		inst.Jobs = append(inst.Jobs, core.Job{
			ID: idx, Task: js.task.Name(), ExecKB: js.task.ExecKB(), InputKB: sizes[id], Atomic: js.atomic,
		})
	}
	inst.C = make([][]float64, len(phones))
	for i, p := range phones {
		emu := 0.0
		if spec, ok := specs[p.Model]; ok && delay > 0 {
			emu = ms(delay) * 1000 / spec.CPU.EffectiveMHz()
		}
		inst.C[i] = make([]float64, len(ids))
		for j, id := range ids {
			inst.C[i][j] = msPerKB[jobs[id].spec.task.Name()]*1000/p.CPUMHz + emu
		}
	}
	return inst
}

// measureGreedy times core.Greedy on each instance and returns the
// median milliseconds.
func measureGreedy(insts []*core.Instance) (float64, error) {
	var times []float64
	for _, inst := range insts {
		start := time.Now()
		if _, err := core.Greedy(inst); err != nil {
			return 0, fmt.Errorf("greedy: %w", err)
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}

// greedyOverLP returns the greedy makespan over the LP relaxation's lower
// bound on inst.
func greedyOverLP(inst *core.Instance) (float64, error) {
	s, err := core.Greedy(inst)
	if err != nil {
		return 0, fmt.Errorf("greedy: %w", err)
	}
	lb, err := core.RelaxedLowerBound(inst)
	if err != nil {
		return 0, fmt.Errorf("LP bound: %w", err)
	}
	return s.Makespan / lb, nil
}
