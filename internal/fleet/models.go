package fleet

import (
	"fmt"
	"path/filepath"
	"sync"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/mibench"
)

// ModelSource resolves a client-supplied workload name to a trained
// model. Implementations must be safe for concurrent use and must treat
// the name as untrusted input. Load returns one shared instance per
// workload: every session of that workload monitors against the same
// *core.Model (models are immutable once trained), so a fleet of N
// same-firmware devices holds one copy of the reference data, not N.
// A source that replaces a workload's model (DirModels.Forget plus a
// rewritten file) hands the new instance to sessions that connect
// afterwards; open sessions keep the one they started with.
type ModelSource interface {
	Load(workload string) (*core.Model, error)
}

// StaticModels serves models from an in-memory map — the test and
// embedding-API source.
type StaticModels map[string]*core.Model

// Load returns the named model or an error.
func (s StaticModels) Load(workload string) (*core.Model, error) {
	m := s[workload]
	if m == nil {
		return nil, fmt.Errorf("fleet: no model for workload %q", workload)
	}
	return m, nil
}

// DirModels loads models saved by eddie -save-model from a directory,
// one file per workload (<dir>/<workload>.json). Loads are cached: a
// fleet of N devices running the same workload shares one model (models
// are immutable once loaded, so sharing across sessions is safe). The
// workload name is validated against the built-in workload set before
// it touches the filesystem, so a hostile client cannot traverse paths,
// and the model file itself goes through core.LoadModel's corrupt-file
// validation with the machine fingerprint rebuilt from the named
// program.
type DirModels struct {
	dir string

	mu    sync.Mutex
	cache map[string]*dirEntry
}

// dirEntry caches one workload's load. Successes are cached forever
// (models are immutable); failures are evicted after the in-flight
// loaders share the error, so installing a missing model file works
// without a restart.
type dirEntry struct {
	once  sync.Once
	model *core.Model
	err   error
}

// NewDirModels creates a directory-backed model source.
func NewDirModels(dir string) *DirModels {
	return &DirModels{dir: dir, cache: map[string]*dirEntry{}}
}

// Load resolves a workload name to its trained model.
func (d *DirModels) Load(workload string) (*core.Model, error) {
	if !validName(workload) {
		return nil, fmt.Errorf("fleet: invalid workload name")
	}
	w, err := mibench.ByName(workload)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	d.mu.Lock()
	e := d.cache[workload]
	if e == nil {
		e = &dirEntry{}
		d.cache[workload] = e
	}
	d.mu.Unlock()
	e.once.Do(func() {
		machine, err := cfg.BuildMachine(w.Program)
		if err != nil {
			e.err = fmt.Errorf("fleet: building machine for %s: %w", workload, err)
			return
		}
		path := filepath.Join(d.dir, workload+".json")
		model, err := core.LoadModelFile(path, machine)
		if err != nil {
			e.err = err
			return
		}
		e.model = model
	})
	if e.err != nil {
		d.mu.Lock()
		if d.cache[workload] == e {
			delete(d.cache, workload)
		}
		d.mu.Unlock()
	}
	return e.model, e.err
}

// Forget drops a cached entry so the next Load re-reads the file (e.g.
// after the operator re-trains a model in place).
func (d *DirModels) Forget(workload string) {
	d.mu.Lock()
	delete(d.cache, workload)
	d.mu.Unlock()
}
