package microbench

import "github.com/shrink-tm/shrink/internal/stmds"

// Tree exposes the underlying set for verification in tests.
func (w *RBTreeWorkload) Tree() *stmds.RBTree[int64] { return w.tree }
