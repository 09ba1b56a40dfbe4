package instrument

// FactKey exposes the optimizer's available-check key to the external tests.
var FactKey = factKey
