package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"macaw/internal/experiments"
	"macaw/internal/metrics"
	"macaw/internal/snapshot"
)

// jobState tracks one job through its campaign.
type jobState int

const (
	jobPending jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCancelled
)

// Campaign is one submitted manifest in flight (or finished). All mutable
// fields are guarded by mu; the job list and manifest are immutable after
// construction.
type Campaign struct {
	ID   string
	Man  *Manifest
	Jobs []Job

	cancel context.CancelFunc
	done   chan struct{} // closed when every job has settled

	mu        sync.Mutex
	states    []jobState
	results   []*Result // indexed like Jobs; nil until settled
	cacheHits int
}

// Status is the JSON document of /campaigns/{id}: deterministic progress and
// cache counters.
type Status struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	State     string `json:"state"` // running, completed, failed, cancelled
	Jobs      int    `json:"jobs"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	CacheHits int    `json:"cache_hits"`
}

// Status snapshots the campaign's progress.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{ID: c.ID, Name: c.Man.Name, Jobs: len(c.Jobs), CacheHits: c.cacheHits}
	settled := 0
	for _, st := range c.states {
		switch st {
		case jobDone:
			s.Done++
			settled++
		case jobFailed:
			s.Failed++
			settled++
		case jobCancelled:
			s.Cancelled++
			settled++
		}
	}
	switch {
	case settled < len(c.Jobs):
		s.State = "running"
	case s.Cancelled > 0:
		s.State = "cancelled"
	case s.Failed > 0:
		s.State = "failed"
	default:
		s.State = "completed"
	}
	return s
}

// Done returns the channel closed when every job has settled.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Cancel stops the campaign's pending jobs; runs already executing finish
// and their results are kept.
func (c *Campaign) Cancel() { c.cancel() }

// settledPrefix returns the results of the longest job-order prefix whose
// jobs have all settled. Streaming replays declaration order, not completion
// order, so two streams of the same campaign are byte-comparable however the
// pool interleaved the work.
func (c *Campaign) settledPrefix() []*Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Result
	for i := range c.Jobs {
		if c.results[i] == nil {
			break
		}
		out = append(out, c.results[i])
	}
	return out
}

// Engine owns the daemon's campaigns: it schedules their jobs on the worker
// pool, serves completed results from the content-addressed cache, persists
// a record per campaign, and drains cleanly. One Engine per state directory.
type Engine struct {
	dir    string
	runner *experiments.Runner
	cache  *snapshot.Manifest

	ctx      context.Context // dies when Drain begins
	drain    context.CancelFunc
	jobs     sync.WaitGroup // in-flight + queued job goroutines
	draining sync.Once

	mu        sync.Mutex
	campaigns map[string]*Campaign
}

// NewEngine opens (or initializes) the state directory and re-schedules
// every campaign recorded there: completed jobs are served from the cache —
// the restart-resume path — and unfinished ones re-simulate. A corrupt
// cache file costs memoized work, never correctness: the engine logs on and
// re-runs. jobs bounds concurrent simulations (the experiments.Runner cap
// applies).
func NewEngine(dir string, jobs int) (*Engine, error) {
	if err := os.MkdirAll(filepath.Join(dir, "campaigns"), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: state dir: %w", err)
	}
	cache, err := snapshot.OpenManifest(filepath.Join(dir, "cache.bin"))
	if err != nil {
		// Typed decode failure: start over with the fresh ledger
		// OpenManifest returned rather than refusing to serve.
		fmt.Fprintf(os.Stderr, "macawd: cache: %v; starting a fresh ledger\n", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		dir: dir, runner: experiments.NewRunner(jobs), cache: cache,
		ctx: ctx, drain: cancel, campaigns: make(map[string]*Campaign),
	}
	if err := e.reload(); err != nil {
		cancel()
		return nil, err
	}
	return e, nil
}

// Jobs reports the engine's effective worker count.
func (e *Engine) Jobs() int { return e.runner.Jobs() }

// CacheLen reports the number of results in the content-addressed cache.
func (e *Engine) CacheLen() int { return e.cache.Len() }

// reload re-schedules every persisted campaign record.
func (e *Engine) reload() error {
	ents, err := os.ReadDir(filepath.Join(e.dir, "campaigns"))
	if err != nil {
		return fmt.Errorf("campaign: state dir: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".json") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(e.dir, "campaigns", name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("campaign: record %s: %w", name, err)
		}
		m, err := DecodeManifest(strings.NewReader(string(data)))
		if err != nil {
			// A torn record fails closed for that campaign only: the
			// submission is gone, but the cache still holds its jobs.
			fmt.Fprintf(os.Stderr, "macawd: skipping unreadable campaign record %s: %v\n", name, err)
			continue
		}
		if _, _, err := e.start(m, false); err != nil {
			return err
		}
	}
	return nil
}

// Submit registers the manifest as a campaign and begins scheduling its
// jobs. Campaign identity is content-derived: resubmitting an identical
// manifest returns the existing campaign (created=false) instead of running
// it twice.
func (e *Engine) Submit(m *Manifest) (*Campaign, bool, error) {
	return e.start(m, true)
}

// start registers and schedules a campaign, persisting its record when the
// submission is new.
func (e *Engine) start(m *Manifest, persist bool) (*Campaign, bool, error) {
	id := m.ID()
	e.mu.Lock()
	if c, ok := e.campaigns[id]; ok {
		e.mu.Unlock()
		return c, false, nil
	}
	jobs := m.Jobs()
	ctx, cancel := context.WithCancel(e.ctx)
	c := &Campaign{
		ID: id, Man: m, Jobs: jobs, cancel: cancel,
		done:    make(chan struct{}),
		states:  make([]jobState, len(jobs)),
		results: make([]*Result, len(jobs)),
	}
	e.campaigns[id] = c
	e.mu.Unlock()

	if persist {
		if err := snapshot.WriteFileAtomic(filepath.Join(e.dir, "campaigns", id+".json"), m.Encode()); err != nil {
			// Fail the submission closed: an unpersisted campaign would
			// silently not survive a restart.
			e.mu.Lock()
			delete(e.campaigns, id)
			e.mu.Unlock()
			cancel()
			close(c.done)
			return nil, false, fmt.Errorf("campaign: persisting record: %w", err)
		}
	}

	var settle sync.WaitGroup
	for i := range jobs {
		settle.Add(1)
		e.jobs.Add(1)
		go func(i int) {
			defer settle.Done()
			defer e.jobs.Done()
			e.runJob(ctx, c, i)
		}(i)
	}
	go func() {
		settle.Wait()
		close(c.done)
	}()
	return c, true, nil
}

// runJob settles job i of campaign c: cache hit, fresh simulation, failure,
// or cancellation.
func (e *Engine) runJob(ctx context.Context, c *Campaign, i int) {
	j := c.Jobs[i]
	key := c.Man.jobKey(j)
	// The cache is consulted before taking a worker slot: a hit serves the
	// recorded line as it is, so resubmitted campaigns finish without
	// queueing behind fresh work.
	if payload, ok := e.cache.Get(key); ok {
		if res, ok := cachedResult(j, payload); ok {
			c.mu.Lock()
			c.states[i], c.results[i] = jobDone, res
			c.cacheHits++
			c.mu.Unlock()
			return
		}
		// An entry that is not this job's line is re-run, never trusted.
	}
	c.mu.Lock()
	c.states[i] = jobRunning
	c.mu.Unlock()

	var res *Result
	err := e.runner.Do(ctx, j.Spec, j.Seed, func() { res = c.Man.execute(j) })
	switch {
	case err == nil:
		// Flush the ledger before exposing the result: once a client has
		// seen a job settle, a crash must not un-complete it.
		if perr := e.cache.Put(key, res.line); perr != nil {
			fmt.Fprintf(os.Stderr, "macawd: ledger flush for %s: %v\n", key, perr)
		}
		// The ledger keeps its own copy, so the line is held once.
		if stored, ok := e.cache.Get(key); ok {
			res.keep(stored)
		}
		c.mu.Lock()
		c.states[i], c.results[i] = jobDone, res
		c.mu.Unlock()
	case ctx.Err() != nil:
		c.mu.Lock()
		c.states[i] = jobCancelled
		c.results[i] = failedResult(j, "cancelled")
		c.mu.Unlock()
	default:
		// A deterministic abort (oracle violation, watchdog panic): record
		// the failure as the job's result, uncached so a resubmission
		// retries it.
		c.mu.Lock()
		c.states[i] = jobFailed
		c.results[i] = failedResult(j, err.Error())
		c.mu.Unlock()
	}
}

// Campaign returns the campaign with the given id.
func (e *Engine) Campaign(id string) (*Campaign, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.campaigns[id]
	return c, ok
}

// Campaigns lists every campaign's status, sorted by id.
func (e *Engine) Campaigns() []Status {
	e.mu.Lock()
	cs := make([]*Campaign, 0, len(e.campaigns))
	for _, c := range e.campaigns {
		cs = append(cs, c)
	}
	e.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
	out := make([]Status, len(cs))
	for i, c := range cs {
		out[i] = c.Status()
	}
	return out
}

// Drain stops accepting new work and waits for every in-flight run to
// finish and flush its ledger entry. Queued jobs that have not started are
// cancelled — the persisted campaign record plus the ledger resume them on
// the next start. Safe to call more than once.
func (e *Engine) Drain() {
	e.draining.Do(e.drain)
	e.jobs.Wait()
}

// MetricsDoc writes the merged metrics document of the campaign's jobs
// matching spec and seed — byte-identical to the -metrics file of the
// equivalent macawsim invocation, because both are the label-sorted
// metrics.Sink JSON of the same RunMetrics snapshots. spec == "" matches
// every spec; seed matters only when the filter would otherwise mix
// identical labels from different seeds. An unsettled matching job is an
// error: the document must be complete or absent, never partial.
func (c *Campaign) MetricsDoc(spec string, seed int64, haveSeed bool, w io.Writer) error {
	c.mu.Lock()
	var matched []*Result
	for i, j := range c.Jobs {
		if spec != "" && j.Spec != spec {
			continue
		}
		if haveSeed && j.Seed != seed {
			continue
		}
		res := c.results[i]
		if res == nil || c.states[i] == jobRunning || c.states[i] == jobPending {
			c.mu.Unlock()
			return fmt.Errorf("campaign: job %s seed %d has not settled yet", j.Spec, j.Seed)
		}
		matched = append(matched, res)
	}
	c.mu.Unlock()
	merged := make(map[string]json.RawMessage)
	for _, res := range matched {
		l, err := res.decode()
		if err != nil {
			return err
		}
		for label, doc := range l.Metrics {
			merged[label] = doc
		}
	}
	return metrics.WriteRuns(w, merged)
}
