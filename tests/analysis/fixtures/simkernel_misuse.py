"""Lint fixture: seeded simulation-kernel misuse (SK001-SK004).

Loaded as text by the analysis tests — never imported.
"""


def not_a_generator(env):
    env.timeout(1.0)


def proper_process(env):
    yield env.timeout(1.0)


def spawn(env):
    env.process(not_a_generator(env))  # MARK: SK001
    env.process(proper_process(env))  # fine


def reentrant(env):
    yield env.timeout(1.0)
    env.run()  # MARK: SK002
    yield env.timeout(1.0)


def stepper(env):
    yield env.timeout(0.5)
    env.step()  # MARK: SK002-step


def double_fire(env):
    ev = env.event()
    ev.succeed(1)
    ev.succeed(2)  # MARK: SK003
    ev2 = env.event()
    ev2.succeed()
    ev2 = env.event()  # rebound: the next succeed is a fresh event
    ev2.succeed()
    ev3 = env.event()
    ev3.succeed()
    ev3.fail(RuntimeError("boom"))  # MARK: SK003-fail


class Pilot:
    def body(self):
        try:
            yield self.sock.recv()
        finally:
            self.sock.close()  # fine: closing is not a record or a respawn
            self.platform.trace.log("worker.stop", {"worker": 1})  # MARK: SK004
            self.on_exit(self)  # MARK: SK004-hook

    def body_fixed(self):
        try:
            yield self.sock.recv()
        finally:
            self.sock.close()
        self.platform.trace.log("worker.stop", {"worker": 1})  # fine: after
        self.on_exit(self)


def finally_schedules(env, done, on_exit):
    try:
        yield env.timeout(1.0)
    finally:
        done.succeed()  # MARK: SK004-trigger
        env.process(proper_process(env))  # MARK: SK004-spawn
        env.timeout(2.0)  # MARK: SK004-schedule
        on_exit(None)  # MARK: SK004-bare-hook


def finally_guarded(env, trace):
    closing = False
    try:
        yield env.timeout(1.0)
    except GeneratorExit:
        closing = True
        raise
    finally:
        if not closing:
            trace.log("worker.stop", {"worker": 1})  # fine: tells teardown apart


def finally_not_a_generator(trace):
    try:
        pass
    finally:
        trace.log("worker.stop", {"worker": 1})  # fine: never closed


def finally_defers(env, trace):
    try:
        yield env.timeout(1.0)
    finally:
        def later():
            trace.log("worker.stop", {"worker": 1})  # fine: not run here

        del later


def factory(trace):
    def nested(env):
        try:
            yield env.timeout(1.0)
        finally:
            trace.log("worker.stop", {"worker": 1})  # MARK: SK004-nested

    return nested
