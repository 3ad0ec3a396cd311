package detect

// AnalyzeChunksOn is AnalyzeChunks on at most the given number of
// workers, whatever GOMAXPROCS and the log length are.
var AnalyzeChunksOn = analyzeChunks
