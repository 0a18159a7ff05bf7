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

    /// The reverse order and a reply under both guards sit in a nested
    /// block comment: trivia, not code.
    pub fn describe(&self, reply: Reply) {
        let value = {
            let b = self.b.lock();
            /* The reverse order used to be taken here:
               let a = self.a.lock();
               /* nested: and the reply went out under both guards */
               reply.send(*a + *b);
            */
            *b
        };
        reply.send(value);
    }
}
