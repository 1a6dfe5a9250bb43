"""Unit tests for the blocking FIFO store."""

import pytest

from repro.des import Environment, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get_is_immediate(self, env):
        store = Store(env)
        store.put("a")
        event = store.get()
        assert event.triggered
        env.run()
        assert event.value == "a"

    def test_fifo_ordering(self, env):
        store = Store(env)
        for item in ("a", "b", "c"):
            store.put(item)
        values = []
        for _ in range(3):
            event = store.get()
            env.run()
            values.append(event.value)
        assert values == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        received = []

        def consumer(env):
            item = yield store.get()
            received.append((env.now, item))

        def producer(env):
            yield env.timeout(5.0)
            store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert received == [(5.0, "late")]

    def test_waiting_getters_served_in_order(self, env):
        store = Store(env)
        received = []

        def consumer(env, tag):
            item = yield store.get()
            received.append((tag, item))

        for tag in range(3):
            env.process(consumer(env, tag))

        def producer(env):
            yield env.timeout(1.0)
            for item in ("x", "y", "z"):
                store.put(item)

        env.process(producer(env))
        env.run()
        assert received == [(0, "x"), (1, "y"), (2, "z")]

    def test_len_and_items(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.items == [1, 2]

    def test_pending_getter_not_counted_as_item(self, env):
        store = Store(env)
        store.get()
        assert len(store) == 0
        store.put("direct-to-getter")
        assert len(store) == 0
