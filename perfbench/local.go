package main

import (
	"io/fs"
	"os"
	"path/filepath"

	"shieldstore"
	"shieldstore/internal/workload"
)

// dbSys is an in-process shieldstore.DB driven directly (core-rd50u,
// spill-rd95z); wireSys embeds it for the DB behind its server.
type dbSys struct {
	in  *inputs
	db  *shieldstore.DB
	dir string // value-log directory, removed on close
	t   *tracer
}

func startCore(_ options, _ spec, in *inputs, t *tracer) (system, error) {
	s := &dbSys{in: in, t: t}
	if err := s.open(shieldstore.Config{}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startSpill sets up the value-log experiment's 16x point: the memory
// budget holds 1/16 of the working set, the enclave cache 1/4, and
// values of 64 B and up may spill.
func startSpill(o options, sp spec, in *inputs, t *tracer) (system, error) {
	s := &dbSys{in: in, t: t}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "vlog-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	ws := int64(len(in.keys) * sp.valSize)
	err = s.open(shieldstore.Config{VLogDir: dir, MemBudget: ws / 16, CacheBytes: ws / 4, SpillThreshold: 64})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// open opens the DB and preloads every key.
func (s *dbSys) open(cfg shieldstore.Config) error {
	db, err := shieldstore.Open(cfg)
	if err != nil {
		return err
	}
	s.db = db
	return preload(s.in, db.MSet)
}

func (s *dbSys) exec(_ int, get bool, ops []workload.Op, got [][]byte) (err error) {
	id := ops[0].Key
	if get {
		got[0], err = s.db.Get(s.in.keys[id])
		return err
	}
	return s.db.Set(s.in.keys[id], s.in.vals[id])
}

func (s *dbSys) traced(w int, op int64, get bool, ops []workload.Op, got [][]byte) error {
	start := s.t.now()
	err := s.exec(w, get, ops, got)
	s.t.lanes[w].add(span{op: op, kind: spCore, parent: rootKind(get), start: start, end: s.t.now()})
	return err
}

func (s *dbSys) counters() counters {
	st := s.db.Stats()
	c := counters{
		vsec:      st.VirtualSeconds,
		untrusted: st.UntrustedBytes,
		encl:      st.EnclaveBytes,
		decrypts:  st.Decryptions,
		ocalls:    st.OCalls,
		epcFaults: st.EPCFaults,
		spills:    st.VLogSpills,
		faults:    st.VLogFaults,
		gcCopies:  st.VLogGCCopies,
		segments:  st.VLogSegments,
		vlatP50:   st.LatencyP50Us,
		vlatP99:   st.LatencyP99Us,
	}
	if s.dir != "" {
		c.disk = dirBytes(s.dir)
	}
	return c
}

// check audits every bucket set and entry of the DB.
func (s *dbSys) check() error { return s.db.VerifyIntegrity() }

func (s *dbSys) close() {
	if s.db != nil {
		s.db.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// layers reports what DB.Stats exposes. It has no CMAC, entry-visit,
// cache or HotCall counters, so those metrics stay absent, and its
// virtual-latency histogram covers every op since Open, the preload
// batches included.
func (s *dbSys) layers(vals map[string]float64, c0, c1 counters, ops, gets, sets int) {
	perOp := func(a, b uint64) float64 { return float64(b-a) / float64(ops) }
	vals["core.vlat_p50_us"] = c1.vlatP50
	vals["core.vlat_p99_us"] = c1.vlatP99
	vals["core.decrypts_per_op"] = perOp(c0.decrypts, c1.decrypts)
	vals["sgx.ocalls_per_op"] = perOp(c0.ocalls, c1.ocalls)
	vals["sgx.epc_faults_per_op"] = perOp(c0.epcFaults, c1.epcFaults)
	vals["mem.untrusted_mb"] = float64(c1.untrusted) / (1 << 20)
	vals["mem.enclave_mb"] = float64(c1.encl) / (1 << 20)
	if s.dir != "" {
		vals["vlog.faults_per_get"] = float64(c1.faults-c0.faults) / float64(max(1, gets))
		vals["vlog.spills_per_set"] = float64(c1.spills-c0.spills) / float64(max(1, sets))
		vals["vlog.gc_copies_per_set"] = float64(c1.gcCopies-c0.gcCopies) / float64(max(1, sets))
		vals["vlog.segments"] = float64(c1.segments)
		vals["vlog.disk_amp"] = float64(c1.disk) / s.in.liveBytes()
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
