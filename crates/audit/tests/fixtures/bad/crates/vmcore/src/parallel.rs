// audit:allow(arith-safety)
pub fn narrow(len: u64) -> u32 { len as u32 }
// audit:allow(frobnicate) rule does not exist
pub fn narrower(len: u64) -> u16 { len as u16 }
