"""RL004 fixture: the canonical bind-then-guard emission idiom."""


def on_rule_installed(sim, switch, xid):
    ins = sim.instruments
    if ins.active:
        ins.rule("installed", sim.now, switch.name, xid)


def on_message(self, message):
    ins = self.sim.instruments
    if ins.active and isinstance(message, tuple):
        ins.rule("received", self.sim.now, self.name, message[0])


def before_update(sim):
    ins = sim.instruments
    if ins.active:
        ins.phase("update")
