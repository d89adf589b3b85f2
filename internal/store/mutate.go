package store

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"ftbfs"
	"ftbfs/internal/telemetry"
)

// MutateResult summarises one applied mutation batch: the new serving
// generation's identity plus how each resident structure crossed over.
type MutateResult struct {
	Lineage     uint64 // stable graph identity (unchanged by mutation)
	Fingerprint uint64 // content fingerprint of the new generation
	Gen         uint64 // new serving generation

	RebuildsDelta int // structures carried over by the delta fast path
	RebuildsFull  int // structures rebuilt from scratch
}

// Mutate applies a batch of edge mutations to the registered graph of the
// given lineage and atomically swaps the store to the new generation.
//
// The swap discipline is the whole point: queries never block on a rebuild
// and never observe a torn or mixed-generation view. The old generation
// keeps serving — untouched — while the new graph is derived, every resident
// structure of the lineage is rebuilt against it (through the DeltaRebuild
// fast path when the batch provably cannot have invalidated the structure,
// a full build otherwise), and the new generation's records are persisted.
// Only then does one short critical section install everything: the graph,
// its generation, and every rebuilt structure swap together, and the swap
// histogram measures exactly that lock-held window. Evicted (on-disk-only)
// structures are not rebuilt eagerly; their next query misses and builds
// against the new generation.
//
// Mutate is atomic with respect to failure: an invalid batch or a persist
// fault (including injected chaos faults) returns an error with NO swap —
// the old generation, in memory and on disk, remains the serving one.
// Superseded record files are garbage-collected after a successful swap;
// the currently-serving generation's files are never touched.
//
// Concurrent Mutate calls serialise on an internal mutex; concurrent reads
// proceed throughout.
func (s *Store) Mutate(ctx context.Context, lineage uint64, muts []ftbfs.Mutation) (MutateResult, error) {
	if len(muts) == 0 {
		return MutateResult{}, fmt.Errorf("store: empty mutation batch")
	}
	if err := ctx.Err(); err != nil {
		return MutateResult{}, err
	}
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()

	type resident struct {
		key Key
		st  structure
	}
	s.mu.Lock()
	g, ok := s.graphs[lineage]
	if !ok {
		s.mu.Unlock()
		return MutateResult{}, fmt.Errorf("store: unknown graph %016x (register it with AddGraph or /build first)", lineage)
	}
	var snap []resident
	for k, e := range s.entries {
		if k.Graph == lineage {
			snap = append(snap, resident{key: k, st: e.st})
		}
	}
	dir := s.dir
	s.mu.Unlock()

	newG, delta, err := g.Mutate(muts)
	if err != nil {
		return MutateResult{}, err
	}
	newGen := newG.Generation()
	res := MutateResult{Lineage: lineage, Fingerprint: newG.Fingerprint(), Gen: newGen}

	// Rebuild every resident structure against the new generation, old
	// generation still serving. A structure the delta provably cannot have
	// invalidated is carried over (edge-set re-keying plus a fresh serving
	// plan); anything else — and every vertex structure — rebuilds fully.
	rebuildStart := time.Now()
	rebuilt := make([]resident, 0, len(snap))
	for _, r := range snap {
		nk := r.key
		nk.Gen = newGen
		if r.key.Model == ModelVertex {
			vst, err := ftbfs.BuildVertex(newG, r.key.Source)
			if err != nil {
				return MutateResult{}, fmt.Errorf("store: mutate %016x: vertex rebuild s%d: %w", lineage, r.key.Source, err)
			}
			vst.Plan()
			res.RebuildsFull++
			rebuilt = append(rebuilt, resident{key: nk, st: vst})
			continue
		}
		if st, ok := ftbfs.DeltaRebuild(r.st.(*ftbfs.Structure), newG, delta); ok {
			res.RebuildsDelta++
			rebuilt = append(rebuilt, resident{key: nk, st: st})
			continue
		}
		st, err := ftbfs.Build(newG, r.key.Source, r.key.Eps, ftbfs.WithAlgorithm(r.key.Alg))
		if err != nil {
			return MutateResult{}, fmt.Errorf("store: mutate %016x: rebuild %v: %w", lineage, r.key, err)
		}
		st.Plan()
		res.RebuildsFull++
		rebuilt = append(rebuilt, resident{key: nk, st: st})
	}
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		tr.Add("store.rebuild", rebuildStart)
	}

	// Persist the new generation before announcing it: structure records
	// first, the graph record last. Whatever prefix a crash leaves behind,
	// a warm start stays consistent — an old graph record ignores stray
	// new-generation structure files; a new graph record GCs the old ones.
	// A persist fault aborts with NO swap (the chaos tests rely on this);
	// already-written future-generation files are best-effort removed and
	// otherwise collected by the next successful swap or warm start.
	if dir != "" {
		var written []string
		fail := func(cause error) (MutateResult, error) {
			for _, p := range written {
				os.Remove(p)
			}
			return MutateResult{}, &PersistError{Err: cause}
		}
		for _, r := range rebuilt {
			p := s.structPath(r.key)
			if err := s.writeAtomic(p, r.st.SaveSlab); err != nil {
				return fail(fmt.Errorf("%v: %w", r.key, err))
			}
			written = append(written, p)
			s.m.saves.Inc()
		}
		if err := s.writeAtomic(s.graphPath(lineage), newG.Write); err != nil {
			return fail(fmt.Errorf("graph %016x: %w", lineage, err))
		}
	}

	// The atomic swap: one critical section installs the graph, its
	// generation, and every rebuilt structure, and drops every stale-
	// generation entry (including any a racing load inserted since the
	// snapshot). Queries block only for this — the histogram proves it.
	swapStart := time.Now()
	s.mu.Lock()
	s.graphs[lineage] = newG
	s.gens[lineage] = newGen
	for k, e := range s.entries {
		if k.Graph == lineage && k.Gen != newGen {
			s.lru.Remove(e.el)
			delete(s.entries, k)
		}
	}
	for _, r := range rebuilt {
		s.insertLocked(r.key, r.st)
	}
	s.mu.Unlock()
	s.m.swapDur.Observe(time.Since(swapStart))
	s.m.generationsApplied.Inc()
	s.m.rebuildsDelta.Add(uint64(res.RebuildsDelta))
	s.m.rebuildsFull.Add(uint64(res.RebuildsFull))

	if dir != "" {
		s.gcSuperseded(lineage, newGen)
	}
	return res, nil
}

// gcSuperseded deletes every persisted structure record of the lineage that
// is not of the serving generation — the files the swap just obsoleted, plus
// any failed-future leftovers an aborted mutation could not remove. The
// serving generation's files (and every other lineage) are never touched.
func (s *Store) gcSuperseded(lineage, serving uint64) {
	for _, pat := range []string{"st-*.fts", "stv-*.fts"} {
		paths, _ := filepath.Glob(filepath.Join(s.dir, pat))
		for _, p := range paths {
			k, ok := keyFromStructFile(p)
			if !ok || k.Graph != lineage || k.Gen == serving {
				continue
			}
			if err := os.Remove(p); err != nil {
				log.Printf("store: gc: %s: %v", filepath.Base(p), err)
				continue
			}
			s.m.persistGC.Inc()
		}
	}
}
