package core

// Fixed-policy constants, exported to the external tests that prove them.
const (
	NativeWindowBudget = nativeWindowBudget
	DispatchCost       = costDispatch
)
