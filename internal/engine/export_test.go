package engine

// BatchSize exposes the session batch size to the external tests, so the
// batch-boundary documents track it if it ever changes.
const BatchSize = batchSize
