package obs

// CompareGolden lets the external obs_test package check its outputs
// against testdata goldens with the same -update flag.
var CompareGolden = compareGolden
