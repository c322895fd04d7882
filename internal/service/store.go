package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"vdtn/internal/atomicfile"
)

// Store is the daemon's durable job store: one directory per job under
// <dir>/jobs, holding
//
//	spec.json     the submitted experiment spec, byte for byte
//	meta.json     the job's Meta snapshot
//	results.jsonl the sweep's streaming JSONL artifact
//
// spec.json and meta.json are written atomically (atomicfile: temp file
// + rename), so a kill -9 can never leave a torn snapshot —
// at worst an orphaned temp file. results.jsonl is an append stream by
// design: its crash contract is ReadJSONLPrefix's (a torn tail is cut on
// resume), not atomicity. The raw spec bytes are what resumption
// re-decodes, so the job's cell grid is reconstructed from the same
// input on every admission.
type Store struct {
	dir string
}

// ErrNoJob reports a job ID with no directory in the store.
var ErrNoJob = errors.New("service: no such job")

// OpenStore opens (creating if needed) the job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	jobs := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		return nil, fmt.Errorf("service: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// jobDir is the job's directory; it exists iff the job does.
func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// ResultsPath is the job's streaming JSONL artifact path. The file
// appears when the job first starts running.
func (s *Store) ResultsPath(id string) string { return filepath.Join(s.jobDir(id), "results.jsonl") }

// NextID returns the next sequential job ID: one past the highest
// numeric ID present, so IDs (and therefore recovery order) follow
// admission order even across restarts.
func (s *Store) NextID() (string, error) {
	ids, err := s.ids()
	if err != nil {
		return "", err
	}
	next := 1
	for _, id := range ids {
		var n int
		if _, err := fmt.Sscanf(id, "j%06d", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return fmt.Sprintf("j%06d", next), nil
}

// ids lists the job directory names, sorted; the zero-padded sequential
// scheme makes lexicographic order admission order.
func (s *Store) ids() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("service: listing jobs: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Create persists a new job: its directory, the submitted spec bytes
// verbatim, and the initial meta snapshot.
func (s *Store) Create(meta Meta, spec []byte) error {
	dir := s.jobDir(meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: creating job %s: %w", meta.ID, err)
	}
	if err := atomicfile.Write(filepath.Join(dir, "spec.json"), spec); err != nil {
		return err
	}
	return s.WriteMeta(meta)
}

// WriteMeta atomically replaces the job's meta snapshot.
func (s *Store) WriteMeta(meta Meta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding meta for %s: %w", meta.ID, err)
	}
	dir := s.jobDir(meta.ID)
	return atomicfile.Write(filepath.Join(dir, "meta.json"), append(data, '\n'))
}

// ReadMeta loads the job's meta snapshot; ErrNoJob for an unknown ID.
func (s *Store) ReadMeta(id string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "meta.json"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Meta{}, fmt.Errorf("%w: %s", ErrNoJob, id)
		}
		return Meta{}, fmt.Errorf("service: reading meta for %s: %w", id, err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("service: decoding meta for %s: %w", id, err)
	}
	return m, nil
}

// ReadSpec loads the job's submitted spec bytes; ErrNoJob for an
// unknown ID.
func (s *Store) ReadSpec(id string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "spec.json"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoJob, id)
		}
		return nil, fmt.Errorf("service: reading spec for %s: %w", id, err)
	}
	return data, nil
}

// List loads every job's meta snapshot, in admission (ID) order. A job
// directory whose meta.json is missing (a crash between MkdirAll and the
// first snapshot) is skipped: it never became a job.
func (s *Store) List() ([]Meta, error) {
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	var metas []Meta
	for _, id := range ids {
		m, err := s.ReadMeta(id)
		if errors.Is(err, ErrNoJob) {
			continue
		}
		if err != nil {
			return nil, err
		}
		metas = append(metas, m)
	}
	return metas, nil
}
