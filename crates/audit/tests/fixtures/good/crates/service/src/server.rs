//! Fixture: the server half of the shipped verb.

pub fn dispatch(req: &str) -> bool {
    req == "predict"
}
