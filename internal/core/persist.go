package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"eddie/internal/cfg"
	"eddie/internal/stats"
)

// modelFile is the on-disk representation of a trained model. The region
// machine itself is not serialized — it is deterministic compile-time
// analysis, so the loader rebuilds it from the program and verifies the
// fingerprint matches.
type modelFile struct {
	Format       int               `json:"format"`
	ProgramName  string            `json:"program"`
	Alpha        float64           `json:"alpha"`
	MaxGroupSize int               `json:"maxGroupSize"`
	Machine      machineSummary    `json:"machine"`
	Regions      []regionModelFile `json:"regions"`
}

// machineSummary fingerprints the region machine the model was built for.
type machineSummary struct {
	Nests   int `json:"nests"`
	Regions int `json:"regions"`
	Blocks  int `json:"blocks"`
}

type regionModelFile struct {
	Region       cfg.RegionID     `json:"region"`
	Label        string           `json:"label"`
	NumPeaks     int              `json:"numPeaks"`
	GroupSize    int              `json:"groupSize"`
	TrainWindows int              `json:"trainWindows"`
	Counts       *summaryFile     `json:"counts,omitempty"`
	Energies     *summaryFile     `json:"energies,omitempty"`
	Modes        []regionModeFile `json:"modes"`

	// Format 1 carried the pooled per-rank reference and the whole count
	// and energy samples. LoadModel validates them, summarizes the two
	// side samples and drops the pooled reference; Save never writes
	// them.
	Ref       [][]float64 `json:"ref,omitempty"`
	CountRef  []float64   `json:"countRef,omitempty"`
	EnergyRef []float64   `json:"energyRef,omitempty"`
}

type regionModeFile struct {
	Run int         `json:"run"`
	Ref [][]float64 `json:"ref"`
}

// summaryFile is a stats.Summary on disk. A region without one has no
// count (or energy) test, as a format-1 region with an empty sample.
type summaryFile struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func toSummaryFile(s stats.Summary) *summaryFile {
	if s.N == 0 {
		return nil
	}
	return &summaryFile{N: s.N, Min: s.Min, Median: s.Median, Max: s.Max}
}

func (sf *summaryFile) summary() stats.Summary {
	if sf == nil {
		return stats.Summary{}
	}
	return stats.Summary{N: sf.N, Min: sf.Min, Median: sf.Median, Max: sf.Max}
}

// modelFormatVersion is the format Save writes. Format 2 replaced the
// count and energy samples with their summaries and dropped the pooled
// reference; LoadModel reads formats 1 and 2.
const modelFormatVersion = 2

// Save writes the model to w as JSON.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{
		Format:       modelFormatVersion,
		ProgramName:  m.ProgramName,
		Alpha:        m.Alpha,
		MaxGroupSize: m.MaxGroupSize,
		Machine: machineSummary{
			Nests:   len(m.Machine.Nests),
			Regions: m.Machine.NumRegions(),
			Blocks:  len(m.Machine.BlockNest),
		},
	}
	for _, id := range m.RegionIDs() {
		rm := m.Regions[id]
		rf := regionModelFile{
			Region:       rm.Region,
			Label:        rm.Label,
			NumPeaks:     rm.NumPeaks,
			GroupSize:    rm.GroupSize,
			TrainWindows: rm.TrainWindows,
			Counts:       toSummaryFile(rm.Counts),
			Energies:     toSummaryFile(rm.Energies),
		}
		for _, mode := range rm.Modes {
			rf.Modes = append(rf.Modes, regionModeFile{Run: mode.Run, Ref: mode.Ref})
		}
		mf.Regions = append(mf.Regions, rf)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&mf); err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	return bw.Flush()
}

// SaveFile writes the model to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Hard sanity caps on loaded models. In fleet mode the model file is
// named by a remote client, so a hostile or corrupt file must not be
// able to provoke a panic, a silent mis-detection, or an oversized
// allocation (the monitor allocates ring buffers of MaxGroupSize+1
// windows up front).
const (
	maxLoadGroupSize = 1 << 20
	maxLoadNumPeaks  = 1 << 12
)

// checkSortedFinite verifies one reference sample: every value finite
// (NaN/Inf poison the K-S comparisons into silently accepting or
// rejecting everything) and sorted ascending (the two-sample K-S walk
// assumes sorted references; unsorted data yields garbage statistics,
// not an error).
func checkSortedFinite(region cfg.RegionID, what string, xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: model region %d: %s[%d] is not finite", region, what, i)
		}
		if i > 0 && x < xs[i-1] {
			return fmt.Errorf("core: model region %d: %s not sorted ascending at index %d", region, what, i)
		}
	}
	return nil
}

// checkSummary verifies one format-2 summary: it stands for a sample
// of at least one value, every value is finite, and the values are in
// order. The count and energy tests read its ends as bounds, so a NaN or
// reversed pair would silently accept or reject every group.
func checkSummary(region cfg.RegionID, what string, sf *summaryFile) error {
	if sf == nil {
		return nil
	}
	if sf.N < 1 {
		return fmt.Errorf("core: model region %d: %s summary has length %d, want at least 1", region, what, sf.N)
	}
	for _, x := range [...]float64{sf.Min, sf.Median, sf.Max} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: model region %d: %s summary value %g is not finite", region, what, x)
		}
	}
	if !(sf.Min <= sf.Median && sf.Median <= sf.Max) {
		return fmt.Errorf("core: model region %d: %s summary not ordered: min %g, median %g, max %g", region, what, sf.Min, sf.Median, sf.Max)
	}
	return nil
}

// validateRegionFile checks one region's reference data, in the given
// file format, against the invariants Save guarantees and the monitor
// assumes.
func validateRegionFile(rf *regionModelFile, format int) error {
	id := rf.Region
	if rf.NumPeaks < 0 || rf.NumPeaks > maxLoadNumPeaks {
		return fmt.Errorf("core: model region %d has invalid peak count %d", id, rf.NumPeaks)
	}
	if rf.GroupSize < 1 || rf.GroupSize > maxLoadGroupSize {
		return fmt.Errorf("core: model region %d has invalid group size %d", id, rf.GroupSize)
	}
	if rf.TrainWindows < 0 {
		return fmt.Errorf("core: model region %d has negative train windows %d", id, rf.TrainWindows)
	}
	for j := range rf.Modes {
		mo := &rf.Modes[j]
		if len(mo.Ref) != rf.NumPeaks {
			return fmt.Errorf("core: model region %d mode %d: %d reference ranks for %d peaks (ragged)", id, j, len(mo.Ref), rf.NumPeaks)
		}
		for k, ref := range mo.Ref {
			if err := checkSortedFinite(id, fmt.Sprintf("mode[%d].ref[%d]", j, k), ref); err != nil {
				return err
			}
		}
	}
	if format != 1 {
		if err := checkSummary(id, "counts", rf.Counts); err != nil {
			return err
		}
		return checkSummary(id, "energies", rf.Energies)
	}
	if len(rf.Ref) != rf.NumPeaks {
		return fmt.Errorf("core: model region %d: %d reference ranks for %d peaks", id, len(rf.Ref), rf.NumPeaks)
	}
	for k, ref := range rf.Ref {
		if err := checkSortedFinite(id, fmt.Sprintf("ref[%d]", k), ref); err != nil {
			return err
		}
	}
	if err := checkSortedFinite(id, "countRef", rf.CountRef); err != nil {
		return err
	}
	return checkSortedFinite(id, "energyRef", rf.EnergyRef)
}

// LoadModel reads a model saved by Save and attaches it to the given
// region machine, which must have been rebuilt from the same program.
// It also reads format-1 files, written by earlier builds: their count
// and energy samples are validated and summarized, and their pooled
// reference is validated and dropped.
//
// The file is treated as untrusted input (in fleet mode its name arrives
// from a remote client): besides the format/fingerprint checks, every
// reference sample is validated to be finite and sorted, region shapes
// must be consistent (no ragged rank tables), and the group sizes are
// bounds-checked so a corrupt file fails with a descriptive error rather
// than a panic, an absurd allocation, or silent mis-detection.
func LoadModel(r io.Reader, machine *cfg.Machine) (*Model, error) {
	var mf modelFile
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if mf.Format != 1 && mf.Format != modelFormatVersion {
		return nil, fmt.Errorf("core: model format %d not supported (want 1 or %d)", mf.Format, modelFormatVersion)
	}
	// NaN fails every comparison, so test for the valid range instead of
	// the invalid one.
	if !(mf.Alpha > 0 && mf.Alpha < 1) {
		return nil, fmt.Errorf("core: model has invalid alpha %g", mf.Alpha)
	}
	if mf.MaxGroupSize < 1 || mf.MaxGroupSize > maxLoadGroupSize {
		return nil, fmt.Errorf("core: model has invalid max group size %d", mf.MaxGroupSize)
	}
	got := machineSummary{
		Nests:   len(machine.Nests),
		Regions: machine.NumRegions(),
		Blocks:  len(machine.BlockNest),
	}
	if got != mf.Machine {
		return nil, fmt.Errorf("core: model was trained for a different program: machine %+v, model expects %+v", got, mf.Machine)
	}
	m := &Model{
		ProgramName:  mf.ProgramName,
		Machine:      machine,
		Regions:      map[cfg.RegionID]*RegionModel{},
		Alpha:        mf.Alpha,
		MaxGroupSize: mf.MaxGroupSize,
	}
	for i := range mf.Regions {
		rf := &mf.Regions[i]
		if machine.Region(rf.Region) == nil {
			return nil, fmt.Errorf("core: model region %d not present in machine", rf.Region)
		}
		if m.Regions[rf.Region] != nil {
			return nil, fmt.Errorf("core: model region %d appears twice", rf.Region)
		}
		if err := validateRegionFile(rf, mf.Format); err != nil {
			return nil, err
		}
		if rf.GroupSize > mf.MaxGroupSize {
			return nil, fmt.Errorf("core: model region %d group size %d exceeds max group size %d", rf.Region, rf.GroupSize, mf.MaxGroupSize)
		}
		rm := &RegionModel{
			Region:       rf.Region,
			Label:        rf.Label,
			NumPeaks:     rf.NumPeaks,
			GroupSize:    rf.GroupSize,
			TrainWindows: rf.TrainWindows,
			Counts:       rf.Counts.summary(),
			Energies:     rf.Energies.summary(),
		}
		if mf.Format == 1 {
			rm.Counts = stats.Summarize(rf.CountRef)
			rm.Energies = stats.Summarize(rf.EnergyRef)
		}
		for _, mo := range rf.Modes {
			rm.Modes = append(rm.Modes, RegionMode{Run: mo.Run, Ref: mo.Ref})
		}
		m.Regions[rf.Region] = rm
	}
	if len(m.Regions) == 0 {
		return nil, fmt.Errorf("core: model contains no regions")
	}
	return m, nil
}

// LoadModelFile reads a model from a file.
func LoadModelFile(path string, machine *cfg.Machine) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	defer f.Close()
	return LoadModel(f, machine)
}
