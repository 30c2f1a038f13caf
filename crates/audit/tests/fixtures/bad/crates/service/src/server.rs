//! Fixture: the server dispatches only the shipped verb.

pub fn dispatch(req: &str) -> bool {
    req == "predict"
}
