package components

// DefaultSeed is the deterministic seed every tool uses so that catalogs,
// fits, and figures are reproducible run to run.
const DefaultSeed int64 = 20210419 // ASPLOS '21 opening day
