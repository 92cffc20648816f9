package kernels

// Fixture exposes the shared beam-problem fixture to the external
// kernels_test package, whose multi-device tests import the fleet
// scheduler (which itself imports kernels).
var Fixture = fixture
