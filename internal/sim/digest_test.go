package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"eddie/internal/cfg"
	"eddie/internal/emsim"
	"eddie/internal/inject"
	"eddie/internal/isa"
	"eddie/internal/mibench"
	"eddie/internal/sim"
)

// captureDigests pins the raw output of the capture path (sim.Run, then
// emsim.Transmit on its power trace) bit for bit. The pipeline goldens
// compare at a relative tolerance and cover only the in-order core, so
// they cannot show that a rewrite of the simulator or channel inner
// loops kept every bit; this table can. Each key is
// workload/core/injection; each value is the SHA-256 of the run's power
// trace, injected-sample flags, segments and counters, then the
// demodulated signal, as raw IEEE-754 bits.
var captureDigests = map[string]string{
	"bitcount/iot/burst":    "00169af08f902dfc44134cb0a00dd39aee03c935eafdc05c0694bbab58d4ec72",
	"bitcount/iot/clean":    "f55e7a8f3aec0de718b43d58e35c6423496800efdb075af5bf8e67fb3af1ab6e",
	"bitcount/iot/inloop":   "637590adffcd44493f11ac65a5aa1f8a5c401b814d07e9866cffaae7feea6eb2",
	"bitcount/ooo/burst":    "b173409934ae3888b24c16c98bf8ea04a14b579857736046356d72631835ef58",
	"bitcount/ooo/clean":    "76e153bc5863ba0f3204eae7ac5f33b8c81ef1056929981f0ac213e98da7b101",
	"bitcount/ooo/inloop":   "cf7a88467845e0cca9ad4cbc804240d1995aad2bbe7cd830d3a2800fb230439d",
	"bitcount/ooo35/burst":  "3e42566b0dbd43dcba06577142537b928cf8c7029c3a4b990691e51db87298c1",
	"bitcount/ooo35/clean":  "7d69210e19ef792554fa86e9c346bd8032b5d22e89c4ad93f2bb2b0f939d795c",
	"bitcount/ooo35/inloop": "36af626efe8c802f9dd0c28bd49838ba7ee2433eb04d2b3b300f5fbc283644cc",
	"dijkstra/iot/burst":    "50d1cad7ceb831f65a37139fb58c487b119e00c022097aff9327fee0c8ac2edf",
	"dijkstra/iot/clean":    "6aafef7707f45eb436938378f6d01566de280839f8d7214e4629cb4be73c1c7a",
	"dijkstra/iot/inloop":   "1e7ad6cc894cf01eb2f865b6e7d2a8c3505de734e623919663b811a316e28eed",
	"dijkstra/ooo/burst":    "4b85166677e4e0aa534954a8fdd2b4a1cdde286d37de2b431a52224f57cc54d8",
	"dijkstra/ooo/clean":    "c5e5775447a60bffe1b11d8681d5bb0356f23b2956f3d82dd39b365d14fb6f49",
	"dijkstra/ooo/inloop":   "a4ee693f9cadd7f903e098ed127e88a427ff815e321cbbd5f937d3472126398b",
	"dijkstra/ooo35/burst":  "e39c699e391a878010a010148faec4ae420d7d6eecec3d35423e597a9b441a3c",
	"dijkstra/ooo35/clean":  "6fe5b88e310b2f759480689acf4c3e9cf909fe0c67ce6bb3c6e13c3deb2e2be1",
	"dijkstra/ooo35/inloop": "3cfaf678489e89743f839de64537a659b135f0f77c022a43f76290314abd7db1",
}

// captureCores are the core shapes the digests cover: the two defaults
// plus an out-of-order core whose issue and retire rings have odd,
// coprime sizes, so a ring cursor that wraps at the wrong point shows.
func captureCores() map[string]sim.Config {
	odd := sim.DefaultOOO()
	odd.IssueWidth = 3
	odd.ROBSize = 5
	return map[string]sim.Config{
		"iot":   sim.DefaultIoT(),
		"ooo":   sim.DefaultOOO(),
		"ooo35": odd,
	}
}

func captureInjectors(m *cfg.Machine) map[string]inject.Injector {
	return map[string]inject.Injector{
		"clean": inject.None{},
		"burst": &inject.Burst{BlockNest: m.BlockNest, FromNest: 0, Count: 20_000},
		"inloop": &inject.InLoop{
			Header: m.Nests[0].Header, Instrs: 8, MemOps: 4, Contamination: 0.5, Seed: 7,
		},
	}
}

func TestCaptureDigests(t *testing.T) {
	for _, w := range []*mibench.Workload{mibench.Bitcount(), mibench.Dijkstra()} {
		machine, err := cfg.BuildMachine(w.Program)
		if err != nil {
			t.Fatal(err)
		}
		for coreName, c := range captureCores() {
			for injName, inj := range captureInjectors(machine) {
				key := w.Name + "/" + coreName + "/" + injName
				execCfg := isa.ExecConfig{MaxInstrs: 20_000_000, InitMem: w.GenInput(3)}
				res, err := sim.Run(w.Program, machine, c, execCfg, inj.Wrap)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				rx, err := emsim.Transmit(res.Power, emsim.DefaultChannel(c.SampleRate()))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if injName != "clean" && !anyTrue(res.InjectedSamples) {
					t.Errorf("%s: no sample marked injected", key)
				}
				if got, want := captureDigest(res, rx), captureDigests[key]; got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}

func captureDigest(res *sim.RunResult, rx []float64) string {
	h := sha256.New()
	for _, v := range res.Power {
		putU64(h, math.Float64bits(v))
	}
	for _, inj := range res.InjectedSamples {
		if inj {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, s := range res.Segments {
		putU64(h, uint64(s.Region))
		putU64(h, uint64(s.StartCycle))
		putU64(h, uint64(s.EndCycle))
	}
	st := res.Stats
	for _, v := range []int64{st.DynInstrs, st.Cycles, st.L1Accesses, st.L1Misses,
		st.L2Accesses, st.L2Misses, st.Branches, st.Mispredicts} {
		putU64(h, uint64(v))
	}
	for _, v := range rx {
		putU64(h, math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func anyTrue(flags []bool) bool {
	for _, f := range flags {
		if f {
			return true
		}
	}
	return false
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
