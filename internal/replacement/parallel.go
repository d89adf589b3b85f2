package replacement

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// ForEachFailureParallel is ForEachFailure with the per-failure subtree
// repairs spread across workers goroutines (≤ 0 means GOMAXPROCS). The
// failures are independent, so each worker keeps its own repair scratch and
// its own copy of the intact distances; fn must be safe for concurrent
// invocation and must neither modify nor retain distE. The set of
// (e, child, distE) triples delivered is identical to the sequential
// method's, in unspecified order.
func (en *Engine) ForEachFailureParallel(workers int, fn func(e graph.EdgeID, child int32, distE []int32)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		en.ForEachFailure(fn)
		return
	}
	// collect the failure list up front (children with parent edges)
	var children []int32
	for v := 0; v < en.G.N(); v++ {
		if en.BT.ParentEdge[v] != graph.NoEdge {
			children = append(children, int32(v))
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := bfs.NewRepair(en.G.N())
			dist := append([]int32(nil), en.BT.Dist...)
			for {
				i := next.Add(1) - 1
				if int(i) >= len(children) {
					return
				}
				en.visitFailure(r, dist, children[i], fn)
			}
		}()
	}
	wg.Wait()
}
