"""T-series fixture: dispatch chains."""

from sim.events import EventKind

_TASK_FINISH = EventKind.TASK_FINISH
_GOVERNOR_TICK = EventKind.GOVERNOR_TICK


class LeakyEngine:
    def run(self, event):
        kind = event.kind
        if kind is _TASK_FINISH:  # line 12: T301 (PERTURB_BEGIN missed)
            self.finish(event)
        elif kind is EventKind.GOVERNOR_TICK:
            self.tick(event)

    def finish(self, event):
        pass

    def tick(self, event):
        pass


class CompleteEngine:
    def run(self, event):
        kind = event.kind
        # Explicit member per branch: must NOT fire.
        if kind is _TASK_FINISH:
            pass
        elif kind is _GOVERNOR_TICK:
            pass
        elif kind is EventKind.PERTURB_BEGIN:
            pass


class CatchAllEngine:
    def run(self, event):
        kind = event.kind
        # Trailing else catches the rest: must NOT fire.
        if kind is _TASK_FINISH:
            pass
        elif kind is _GOVERNOR_TICK:
            pass
        else:
            pass
