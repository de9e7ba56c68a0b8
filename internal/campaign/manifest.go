// Package campaign implements the experiment-campaign service behind
// cmd/macawd (DESIGN.md §17): a submitted manifest expands into a fixed,
// ordered list of jobs — one (spec, seed) simulation each — that fan out
// through the experiments.Runner worker pool, with every completed job's
// result line recorded in a content-addressed cache keyed on (canonical
// config hash, seed). The cache doubles as the campaign ledger: each job's
// line is appended and fsynced before the job is reported done, so however
// the daemon dies, a restart re-schedules the campaign and every job that
// finished is served from the cache instead of re-simulated. Results are
// pure functions of their job's configuration — no timestamps, no cache
// provenance — so a resumed campaign's result stream is byte-identical to
// an uninterrupted one.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"macaw/internal/experiments"
	"macaw/internal/sim"
	"macaw/internal/snapshot"
)

// Manifest is the campaign submission document: the run length every job
// shares, and the list of run specs to expand against their seed lists.
type Manifest struct {
	// Name labels the campaign. It participates in the campaign ID (two
	// submissions differing only in name are distinct campaigns) but NOT in
	// any job's cache key — resubmitting a finished campaign under a new
	// name is served entirely from the cache.
	Name string `json:"name,omitempty"`
	// TotalS and WarmupS are the simulated seconds of every job, warmup
	// excluded from measurement. WarmupS must be strictly less than TotalS.
	TotalS  float64 `json:"total_s"`
	WarmupS float64 `json:"warmup_s"`
	// Audit attaches the protocol-conformance oracle to every run; a rule
	// violation fails the job instead of recording a non-conformant result.
	Audit bool `json:"audit,omitempty"`
	// Runs are the specs to expand. Each spec names exactly one generator
	// family and at least one seed.
	Runs []RunSpec `json:"runs"`
}

// RunSpec is one line of a manifest: exactly one of Table, Chaos, or Sweep,
// expanded over Seeds.
type RunSpec struct {
	// Table names a paper-table or extension generator (table1..table11,
	// ext-*).
	Table string `json:"table,omitempty"`
	// Chaos selects the fault-injection robustness table.
	Chaos bool `json:"chaos,omitempty"`
	// Sweep runs a warm-started parameter sweep over this spec string
	// ("kind=v1,v2[;kind2=v3,…]", the -sweep syntax).
	Sweep string `json:"sweep,omitempty"`
	// Seeds lists the seeds to run this spec at, one job per seed.
	Seeds []int64 `json:"seeds"`
}

// ManifestError is the typed decode/validation failure: every malformed
// manifest fails closed with the field that broke and why, never a partial
// campaign.
type ManifestError struct {
	Field  string // the offending field, e.g. "runs[2].table"
	Reason string
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("campaign manifest: %s: %s", e.Field, e.Reason)
}

// MaxManifestBytes bounds a submission body; a larger document is rejected
// before decoding.
const MaxManifestBytes = 1 << 20

// DecodeManifest decodes and validates a campaign manifest, failing closed
// with a *ManifestError on any defect: unknown fields, trailing garbage, a
// spec naming zero or several generator families, an unknown table id, a
// malformed sweep spec, a sweep at warmup 0, missing seeds, or a warmup
// that does not fit inside the total.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxManifestBytes))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, &ManifestError{Field: "(document)", Reason: err.Error()}
	}
	// A second value (or any non-space trailing bytes) means the body was
	// not one JSON document.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &ManifestError{Field: "(document)", Reason: "trailing data after the manifest object"}
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate applies every manifest invariant.
func (m *Manifest) validate() error {
	if m.TotalS <= 0 {
		return &ManifestError{Field: "total_s", Reason: "must be > 0"}
	}
	if m.WarmupS < 0 {
		return &ManifestError{Field: "warmup_s", Reason: "must be >= 0"}
	}
	if m.WarmupS >= m.TotalS {
		return &ManifestError{Field: "warmup_s", Reason: "warmup must be shorter than total_s"}
	}
	if len(m.Runs) == 0 {
		return &ManifestError{Field: "runs", Reason: "a campaign needs at least one run spec"}
	}
	for i, rs := range m.Runs {
		field := fmt.Sprintf("runs[%d]", i)
		n := 0
		if rs.Table != "" {
			n++
		}
		if rs.Chaos {
			n++
		}
		if rs.Sweep != "" {
			n++
		}
		if n != 1 {
			return &ManifestError{Field: field, Reason: "exactly one of table, chaos, or sweep must be set"}
		}
		if rs.Table != "" {
			if _, ok := experiments.Lookup(rs.Table); !ok {
				return &ManifestError{Field: field + ".table",
					Reason: fmt.Sprintf("unknown experiment %q (known: %s)", rs.Table, strings.Join(experiments.KnownIDs(), ", "))}
			}
		}
		if rs.Sweep != "" {
			if _, err := experiments.ParseSweepSpec(rs.Sweep); err != nil {
				return &ManifestError{Field: field + ".sweep", Reason: err.Error()}
			}
			// A sweep applies each variant's delta at the delta barrier,
			// start+warmup; at warmup 0 there is no warmed network.
			if m.Warmup() == 0 {
				return &ManifestError{Field: field + ".sweep", Reason: "the delta barrier is start+warmup, so a sweep needs warmup_s > 0"}
			}
		}
		if len(rs.Seeds) == 0 {
			return &ManifestError{Field: field + ".seeds", Reason: "at least one seed is required"}
		}
		seen := make(map[int64]bool, len(rs.Seeds))
		for _, s := range rs.Seeds {
			if seen[s] {
				return &ManifestError{Field: field + ".seeds", Reason: fmt.Sprintf("seed %d repeats", s)}
			}
			seen[s] = true
		}
	}
	return nil
}

// Job is one unit of campaign work: one generator family at one seed.
type Job struct {
	// Spec is the job's canonical spec string: "table:<id>", "chaos", or
	// "sweep:<spec>". It is the run identity inside cache keys and result
	// lines.
	Spec string
	Seed int64
}

// spec renders a RunSpec's canonical spec string.
func (rs RunSpec) spec() string {
	switch {
	case rs.Table != "":
		return "table:" + rs.Table
	case rs.Chaos:
		return "chaos"
	default:
		return "sweep:" + rs.Sweep
	}
}

// Jobs expands the manifest into its ordered job list: specs in declaration
// order, seeds in declaration order within each spec. The order is part of
// the campaign's identity — the result stream replays it.
func (m *Manifest) Jobs() []Job {
	var jobs []Job
	for _, rs := range m.Runs {
		for _, seed := range rs.Seeds {
			jobs = append(jobs, Job{Spec: rs.spec(), Seed: seed})
		}
	}
	return jobs
}

// Total and Warmup convert the manifest durations to simulation time.
func (m *Manifest) Total() sim.Duration  { return sim.FromSeconds(m.TotalS) }
func (m *Manifest) Warmup() sim.Duration { return sim.FromSeconds(m.WarmupS) }

// canonical renders the manifest's canonical description: every field that
// shapes the campaign, in a fixed order. Hashing it yields the campaign ID.
func (m *Manifest) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "macawd-campaign-v1|name=%s|total=%d|warmup=%d|audit=%t", m.Name, m.Total(), m.Warmup(), m.Audit)
	for _, rs := range m.Runs {
		fmt.Fprintf(&b, "|spec=%s:seeds=", rs.spec())
		for i, s := range rs.Seeds {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
	}
	return b.String()
}

// ID returns the campaign's content-derived identifier: the hex FNV-64a hash
// of the canonical manifest description. Submitting an identical manifest
// yields the identical campaign.
func (m *Manifest) ID() string {
	return fmt.Sprintf("%016x", snapshot.ConfigHash(m.canonical()))
}

// resultsVersion numbers the output a job's result line renders: its
// tables and metrics documents. It is part of jobDesc, so a ledger written
// by a build whose output differs is never served as this build's results.
// Bump it with any change to rendered output; TestResultsVersionPinsOutput
// pins each version to a digest of one job's line and fails until the bump
// is made.
const resultsVersion = 1

// jobDesc is the canonical description of one job's run configuration —
// everything that shapes its event history and nothing that doesn't (the
// campaign name deliberately absent) — and of the results version that
// rendered it. It is the repository's one run identity: its hash
// content-addresses the job's result, so overlapping campaigns, or one
// campaign resubmitted, share ledger entries for every identically
// configured job. The string is part of the cache.bin format — changing
// it, a results version bump included, orphans every recorded result.
func (m *Manifest) jobDesc(j Job) string {
	return fmt.Sprintf("macawd-job-v1|results=%d|spec=%s|total=%d|warmup=%d|audit=%t|seed=%d",
		resultsVersion, j.Spec, m.Total(), m.Warmup(), m.Audit, j.Seed)
}

// jobKey is the job's ledger key: spec, config hash, seed (snapshot.Key).
func (m *Manifest) jobKey(j Job) string {
	return snapshot.Key(j.Spec, snapshot.ConfigHash(m.jobDesc(j)), j.Seed)
}

// Encode renders the manifest as compact canonical JSON (the persisted
// campaign-record form).
func (m *Manifest) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(m); err != nil {
		panic(fmt.Sprintf("campaign: manifest encode: %v", err)) // concrete types cannot fail
	}
	return buf.Bytes()
}
