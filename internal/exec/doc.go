// Package exec runs logical plans from internal/plan against the crowd
// through a hybrid Volcano executor.
//
// # Iterator composition
//
// Every operator implements Iterator (Next/Close/Stable). Call-free
// operators — Scan, Filter and Project without human tasks, local joins,
// Distinct, Limit, OrderBy and Aggregate over local keys — fuse into a
// single pull chain that runs in the consumer's goroutine: a call to the
// root's Next pulls exactly one tuple through the whole local pipeline
// with no channels, goroutines or per-operator buffering. Operators that
// wait on humans (filters/projections whose expressions call script
// tasks, human joins, PreFilter, Rank) keep a producer goroutine and are
// bridged into the chain through a bounded queue (queueIter), so HIT
// batching and asynchrony are preserved where they pay and avoided where
// they don't. Steady-state allocation is O(pipeline depth), not O(rows).
//
// # Compiled expressions
//
// Expressions are compiled once per query, when the operator that owns
// them is built or its producer starts, against the schema of the
// operator's input: every
// operator emits tuples under its plan node's Schema(), so each column
// reference binds to an ordinal and the compiled program reads row[i]
// with no name resolution per row (compile.go). Boolean contexts —
// filter conjuncts, join residuals — compile to predicates that return
// bool, short-circuit AND/OR, and compare operands in place through
// relation.Compare. Human task calls bind to slots the same way columns
// bind to ordinals: each operator binds its distinct calls (field
// projections of one invocation share a call) to slots in
// first-appearance order, resolveCallsN submits them through the task
// manager and fills a value slice by slot, and the compiled call reads
// calls[slot] — no call key is encoded and no map is consulted per
// tuple. Errors a row can
// raise (an unknown column, an unresolved call) are returned per row by
// the program and reported per tuple through the query. Compiled
// programs are not cached with plans: compiling costs O(expression
// nodes) per query.
//
// # Virtual time
//
// Every goroutine of a query — the result sink, each async operator's
// producer and a human join's input drains — is a participant of the
// crowd clock's activity tracker (internal/quiesce), and every wait on
// the crowd is a tracked block: operator queues, the per-operator
// outcome wait groups, the filter window and the rank barrier. The
// clock pump advances virtual time only while every participant is
// blocked, so a query's batches, HIT posting order and latencies depend
// on its seed alone, not on how goroutines interleaved.
//
// # Tuple ownership
//
// A tuple returned by Next is transient unless the iterator's Stable()
// reports true: it remains valid only until the next Next or Close on
// that iterator, because pull-chain operators reuse scratch buffers and
// sorting operators recycle emitted rows through a sync.Pool
// (release-on-emit). A consumer that retains tuples past the next pull
// must clone them; ensureStable wraps any iterator with a cloning
// adapter, and the sink clones transient roots before publishing to the
// results table. Buffers travel through bufPool: getBuf hands out pooled
// value slices, putBuf zeroes and returns them.
//
// Closing the root propagates Close upstream, so LIMIT and cancellation
// stop scans and upstream producers early instead of draining them. A
// canceled query with a task-manager scope ends its result stream only
// after its producer goroutines have exited, so no HIT post for it is
// still under way once the consumer sees the end.
//
// # Plan caching
//
// The executor itself is stateless across queries; plan reuse lives in
// internal/core's normalized-SQL plan cache (literal-stripped
// fingerprints from qlang.NormalizeQuery, re-validated against the live
// pre-filter cost decisions on every hit). See internal/core/plancache.go.
package exec
