#![forbid(unsafe_code)]

pub struct Reply;

impl Reply {
    pub fn send(self, _v: u64) {}
}

pub struct Mutex<T>(T);

impl<T> Mutex<T> {
    pub fn lock(&self) -> &T {
        &self.0
    }
}

pub struct S {
    a: Mutex<u64>,
    b: Mutex<u64>,
}

impl S {
    pub fn forward(&self) -> u64 {
        let a = self.a.lock();
        let b = self.b.lock();
        *a + *b
    }

    /// Quotes the reverse order and a reply under both guards in a raw
    /// string: text, not code. The lone `"` inside ends an ordinary string.
    pub fn describe(&self) -> &'static str {
        let _b = self.b.lock();
        r#"quoted "let a = self.a.lock(); reply.send(*a); is still text"#
    }
}
