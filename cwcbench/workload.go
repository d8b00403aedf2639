package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cwc/internal/device"
	"cwc/internal/expt"
	"cwc/internal/tasks"
)

// workload is one seeded job mix together with the fleet and master
// settings it runs on.
type workload struct {
	name string
	why  string
	// phones is the fleet; delayPerKB emulates phone CPUs (zero: host
	// speed).
	phones     []device.Phone
	delayPerKB time.Duration
	// durable turns on the WAL (shipped defaults) and pipelines batches:
	// batch k+1 is submitted while batch k's round runs.
	durable bool
	// lpBound measures the greedy schedule against the LP lower bound;
	// affordable only at the paper's 150 jobs (≈0.7 s, but ≈41 s at 600).
	lpBound bool
	// deployments is how many deployments an untraced run sets up and
	// splits its measured seconds between.
	deployments int
	// jobs and batchKB size one batch; gen draws it from the seed.
	jobs    int
	batchKB float64
	gen     func(w *workload, rng *rand.Rand) ([]*jobSpec, error)
}

// jobSpec is one job of a batch and its reference result.
type jobSpec struct {
	task   tasks.Task
	input  []byte
	atomic bool
	want   []byte
}

const (
	// primeMax bounds the integers of primecount inputs, as the cluster
	// tests do.
	primeMax = 100000
	// countWord is the wordcount target.
	countWord = "sale"
	// poolBatches distinct batches are drawn per run and cycled: enough
	// that consecutive batches differ, few enough that generating them
	// and their reference results stays a small part of a run.
	poolBatches = 3
)

var workloads = []*workload{
	{
		name: "fig12a-mix",
		why: "paper §6 mix (50 primecount, 50 wordcount, 50 atomic blur, 15 MB) on the 18-phone testbed with " +
			"emulated phone CPUs: execution and the slowest phone set each round; control for codec and WAL changes",
		phones:     device.Testbed(),
		delayPerKB: time.Millisecond,
		lpBound:    true,
		// Each deployment's concurrent bandwidth probes skew its packing
		// for good; five of them keep one skewed deployment from moving
		// the run's median.
		deployments: 5,
		jobs:        150,
		batchKB:     15 * 1024,
		gen:         fig12aBatch,
	},
	{
		name: "bulk-durable",
		why: "100 breakable 0.05-0.6 MB jobs (26 MB) at host speed on 6 phones with a SyncAlways WAL: " +
			"JSON+base64 frames, WAL bytes, digests and folds dominate",
		phones:      device.Testbed()[:6],
		durable:     true,
		deployments: 3,
		jobs:        100,
		batchKB:     26 * 1024,
		gen:         bulkBatch,
	},
	{
		name: "small-durable",
		why: "600 jobs of 2-8 KB at host speed on 18 phones with a SyncAlways WAL: per-record fsyncs under the " +
			"master lock, greedy packing of 600x18, per-partition round trips",
		phones:      device.Testbed(),
		durable:     true,
		deployments: 3,
		jobs:        600,
		batchKB:     600 * 5,
		gen:         smallBatch,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fig12aBatch draws the paper's §6 job sizes from expt.PaperWorkload and
// rescales them so every batch holds the same number of bytes: the seed
// chooses the mix, not the amount of work.
func fig12aBatch(w *workload, rng *rand.Rand) ([]*jobSpec, error) {
	cj := expt.PaperWorkload(rng, 0.05)
	sizes := make([]float64, len(cj))
	for i, j := range cj {
		sizes[i] = j.InputKB
	}
	rescale(sizes, w.batchKB)
	out := make([]*jobSpec, 0, len(cj))
	for i, j := range cj {
		var (
			js  *jobSpec
			err error
		)
		switch j.Task {
		case "primecount":
			js = &jobSpec{task: tasks.PrimeCount{}, input: tasks.GenIntegers(sizes[i], primeMax, rng)}
		case "wordcount":
			js = &jobSpec{task: tasks.WordCount{Word: countWord}, input: tasks.GenText(sizes[i], rng)}
		case "blur":
			js = &jobSpec{task: tasks.Blur{}, atomic: true}
			js.input, err = tasks.GenImageKB(sizes[i], rng)
		default:
			err = fmt.Errorf("unexpected task %q in the paper workload", j.Task)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, js)
	}
	return out, nil
}

// bulkBatch draws w.jobs breakable jobs of 0.05-0.6 MB, primecount and
// wordcount alternating, rescaled to w.batchKB in total.
func bulkBatch(w *workload, rng *rand.Rand) ([]*jobSpec, error) {
	return countingBatch(w, rng, 50, 600), nil
}

// smallBatch draws w.jobs jobs of 2-8 KB, primecount and wordcount
// alternating, rescaled to w.batchKB in total.
func smallBatch(w *workload, rng *rand.Rand) ([]*jobSpec, error) {
	return countingBatch(w, rng, 2, 8), nil
}

func countingBatch(w *workload, rng *rand.Rand, minKB, maxKB float64) []*jobSpec {
	sizes := make([]float64, w.jobs)
	for i := range sizes {
		sizes[i] = minKB + rng.Float64()*(maxKB-minKB)
	}
	rescale(sizes, w.batchKB)
	out := make([]*jobSpec, len(sizes))
	for i, kb := range sizes {
		if i%2 == 0 {
			out[i] = &jobSpec{task: tasks.PrimeCount{}, input: tasks.GenIntegers(kb, primeMax, rng)}
		} else {
			out[i] = &jobSpec{task: tasks.WordCount{Word: countWord}, input: tasks.GenText(kb, rng)}
		}
	}
	return out
}

// rescale multiplies sizes so they sum to total.
func rescale(sizes []float64, total float64) {
	sum := 0.0
	for _, s := range sizes {
		sum += s
	}
	for i := range sizes {
		sizes[i] *= total / sum
	}
}

// makePool draws poolBatches batches from seed and computes every job's
// reference result with a single-threaded Process over its whole input.
func makePool(w *workload, seed int64) ([][]*jobSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]*jobSpec, poolBatches)
	for b := range pool {
		batch, err := w.gen(w, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: generating batch %d: %w", w.name, b, err)
		}
		for i, js := range batch {
			var ck tasks.Checkpoint
			js.want, err = js.task.Process(context.Background(), js.input, &ck)
			if err != nil {
				return nil, fmt.Errorf("%s: reference result of batch %d job %d: %w", w.name, b, i, err)
			}
		}
		pool[b] = batch
	}
	return pool, nil
}

// warmupBatch is the first tenth (at least one) of each task's jobs in
// batch: enough for the warm-up round to profile every task, small enough
// that set-up time is not one more noisy batch makespan.
func warmupBatch(batch []*jobSpec) []*jobSpec {
	perTask := map[string]int{}
	for _, js := range batch {
		perTask[js.task.Name()]++
	}
	taken := map[string]int{}
	var out []*jobSpec
	for _, js := range batch {
		name := js.task.Name()
		if taken[name] < (perTask[name]+9)/10 {
			taken[name]++
			out = append(out, js)
		}
	}
	return out
}

// batchBytes is the total input of a batch.
func batchBytes(batch []*jobSpec) int64 {
	var n int64
	for _, js := range batch {
		n += int64(len(js.input))
	}
	return n
}
