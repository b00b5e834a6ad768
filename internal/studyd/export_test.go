package studyd

// SetSlotTaken installs f as the hook every study runs once it holds a
// run slot; nil removes it. Install it before the server under test
// starts and remove it after the server has stopped.
func SetSlotTaken(f func()) { slotTaken = f }
