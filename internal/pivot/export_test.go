package pivot

// AnalyzeRuns is the run-enumeration pivot search (analyzeRuns), the
// reference the external tests and benchmarks hold the grid to.
var AnalyzeRuns = analyzeRuns
