// Package ftbfs constructs fault-tolerant BFS structures that trade
// expensive fail-proof "reinforced" edges against cheap fault-prone
// "backup" edges, implementing
//
//	Merav Parter and David Peleg,
//	"Fault Tolerant BFS Structures: A Reinforcement-Backup Tradeoff",
//	SPAA 2015 (arXiv:1504.04169).
//
// Given a network G and a source s, a (b, r) FT-BFS structure is a subgraph
// H ⊆ G with r reinforced edges (assumed to never fail) and b backup edges
// such that after the failure of any single non-reinforced edge e, the
// surviving structure still preserves all BFS distances from s:
//
//	dist(s, v, H \ {e}) ≤ dist(s, v, G \ {e})   for every v.
//
// The tradeoff (Theorems 3.1 and 5.1 of the paper): for every ε ∈ [0, 1],
// r(n) = Θ̃(n^{1−ε}) reinforced edges are necessary and sufficient for
// b(n) = Θ̃(min{n^{1+ε}, n^{3/2}}) backup edges. ε = 1 recovers the
// classical FT-BFS bound Θ(n^{3/2}); ε = 0 reinforces the BFS tree itself.
//
// # Quick start
//
//	g := ftbfs.NewGraph(4)
//	g.MustAddEdge(0, 1)
//	g.MustAddEdge(1, 2)
//	g.MustAddEdge(2, 3)
//	g.MustAddEdge(3, 0)
//	st, err := ftbfs.Build(g, 0, 0.25)
//	if err != nil { ... }
//	fmt.Println(st.BackupCount(), st.ReinforcedCount())
//
// Use Structure.Oracle for distance queries under simulated failures, and
// SweepCost / PredictOptimalEpsilon to pick ε from the per-edge prices of
// backup and reinforced links. BuildBatch builds many (source, ε, algorithm)
// requests at once, sharing the BFS tree, the replacement-path preprocessing
// and the reinforcement sweep per source.
//
// # Concurrent serving
//
// Structures are immutable once built and safe to share; Oracles are not
// (each owns its search scratches). A concurrent server therefore checks
// oracles out of Structure.OraclePool — a sync.Pool-backed checkout that
// recycles scratch buffers across requests. The intact distance vector
// behind Oracle.Dist is computed once per structure and cached forever
// (structures never change), shared by every oracle of the pool.
//
// Failure queries run against the structure's QueryPlan (Structure.Plan,
// built once and shared): H is materialized as its own flat CSR adjacency,
// and the plan classifies the failed edge against H's canonical BFS tree.
// A failure off the tree — including every edge outside H — cannot change
// any distance, so the answer is an O(1) read of the intact vector; a
// failed tree edge repairs only the subtree hanging below it, seeded from
// the intact-distance frontier crossing into it, and only as deep as the
// target's answer (bfs.Repair: Run records the failure, Dist drains
// distance levels until the target settles and a later Dist resumes). A
// target costs at most the arcs of the subtree vertices at levels ≤ its
// answer. The original full-BFS search survives as Oracle.DistAvoidingRef,
// the reference the fast paths are differential-tested against.
// Oracle.DistAvoidingMany validates a whole query vector up front (an error
// never publishes partial results) and answers it grouped by failed edge,
// so each distinct tree-edge failure is repaired once for all its targets.
//
// The internal/store package keys built structures by
// (Graph.Fingerprint, source, ε, algorithm) with LRU eviction, builds
// misses on demand through BuildBatch, and — given a directory — persists
// everything via Save/LoadStructure so evicted entries load back through and
// a restarted process warm-starts from disk. internal/server exposes that
// registry over HTTP/JSON ("ftbfs serve": /build, /dist, /dist-avoiding,
// /batch-query, /stats, /healthz, /readyz); /batch-query vectors may span
// several structures and answer with per-query error slots
// (Oracle.DistAvoidingEach).
//
// # Vertex failures
//
// Single VERTEX failures (the companion problem of Parter DISC'14 /
// Parter–Peleg ESA'13) are served by the same machinery: BuildVertex
// constructs a VertexStructure, and both structure types answer through one
// QueryPlan, one Oracle and one OraclePool. The failure model is a property
// of the structure, not a second set of types: a vertex structure's plan
// classifies a failed vertex w the way an edge structure's plan classifies
// a failed edge — a target off w's subtree in H's BFS tree is an O(1) read
// of the cached intact vector, a target below w reads one resumable repair
// of w's strict-descendant subtree with every arc of w banned, drained down
// to the target's answer (bfs.Repair.Run takes the failed tree edge, or
// none when the subtree root itself failed). Oracle.DistAvoidingVertex is
// the point query and DistAvoidingVertexRef the full-BFS reference it is
// differential-tested against; a FailureQuery with Vertex set names a
// failed vertex, so DistAvoidingMany and DistAvoidingEach batch both
// models, and an oracle
// rejects a failure of the other model. VertexStructure.Save and
// LoadVertexStructure persist the structure as a version-2 record of the
// structure text format (edge files keep their version-1 record); the store
// keys vertex structures under a failure-model Key dimension
// (store.VertexKey) with the same single-flight build-through, LRU and
// persist directory, and the server exposes them on /dist-avoiding-vertex
// plus "failedVertex" slots in /batch-query vectors.
//
// # Sharded serving
//
// internal/cluster scales the serving plane past one machine: a
// consistent-hash ring over the structure keyspace with a configurable
// replication factor, shard membership with health probes, and a router
// ("ftbfs route") that proxies the full query surface to the owning shards
// — hedged reads across replicas for point queries, scatter-gather with
// per-shard sub-batching for multi-structure batch vectors, and
// single-flight build fan-out so one logical /build lands on every replica
// exactly once. The ring depends only on shard IDs, so every router with
// the same member set routes identically and a shard rejoin moves no keys.
// cluster.StartLocal boots an N-shard cluster plus router in-process for
// tests and benchmarks.
//
// # Binary wire protocol and slab persistence
//
// HTTP/JSON stays the compatibility surface, but the hot paths have binary
// equivalents. Structure.SaveSlab and VertexStructure.SaveSlab write a
// version-3 binary record ("slab"): a fixed little-endian header plus
// 8-aligned array sections holding exactly the serving arrays the query
// plan needs, guarded by a CRC-32C checksum. LoadStructure and
// LoadVertexStructure sniff the format from the first bytes — text records
// (versions 1 and 2) keep loading unchanged — and on little-endian hosts a
// slab's arrays are reinterpreted in place rather than parsed, so loading
// is I/O-bound and the store's warm start and load-through revalidate
// cheaply instead of re-deriving. The store persists slabs atomically
// (temp file, fsync, rename, directory sync) so a crash never leaves a
// torn record.
//
// internal/wire speaks a length-prefixed binary frame protocol over
// persistent TCP connections ("ftbfs serve -wire"): requests carry a fixed
// binary point-query or batch payload and a request id, responses may
// arrive out of order, and both sides coalesce bursts of frames into
// shared syscalls, which is what removes the per-request HTTP tax. The
// server side funnels wire requests through the same handlers as HTTP, so
// the two transports are answer-identical by construction (and
// differential-tested, transport against transport against oracle).
// Shards advertise their wire address on /readyz ("ftbfs serve -shard"
// opens one even without -wire); the router learns it from its probes and
// reaches shards for queries and mutations only over the wire, failing an
// attempt that hits a transport fault over to the next replica.
package ftbfs
