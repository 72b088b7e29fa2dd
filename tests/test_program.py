"""Unit tests for the modular program IR (QModule / Program / builder)."""

import pytest

from repro.exceptions import IRError, QubitBindingError, ValidationError
from repro.ir.builder import ModuleBuilder
from repro.ir.program import CallStmt, GateStmt, Program, QModule, QubitRegister

from tests.conftest import build_fun1, build_two_level_program


class TestQubitRegister:
    def test_register_indexing(self):
        register = QubitRegister("r", 3)
        assert len(register) == 3
        assert register[1].index == 1

    def test_register_requires_positive_size(self):
        with pytest.raises(IRError):
            QubitRegister("r", 0)


class TestQModule:
    def test_params_are_inputs_then_outputs(self):
        module = QModule("m", num_inputs=2, num_outputs=1, num_ancilla=1)
        assert module.num_params == 3
        assert module.params[:2] == module.inputs
        assert module.params[2] == module.outputs[0]

    def test_requires_at_least_one_parameter(self):
        with pytest.raises(IRError):
            QModule("m", num_inputs=0, num_outputs=0)

    def test_gate_scope_checking(self):
        module = QModule("m", num_inputs=2)
        other = QModule("other", num_inputs=1)
        with pytest.raises(QubitBindingError):
            module.x(other.inputs[0])

    def test_gate_arity_checked(self):
        module = QModule("m", num_inputs=3)
        with pytest.raises(IRError):
            module.gate("cx", module.inputs[0])

    def test_call_arity_checked(self):
        child = QModule("child", num_inputs=2)
        parent = QModule("parent", num_inputs=3)
        with pytest.raises(IRError):
            parent.call(child, parent.inputs[0])

    def test_call_rejects_duplicate_args(self):
        child = QModule("child", num_inputs=2)
        parent = QModule("parent", num_inputs=3)
        with pytest.raises(IRError):
            parent.call(child, parent.inputs[0], parent.inputs[0])

    def test_blocks_routing(self):
        module = QModule("m", num_inputs=2, num_ancilla=1)
        module.cx(module.inputs[0], module.ancillas[0])
        module.begin_store()
        module.cx(module.ancillas[0], module.inputs[1])
        assert len(module.compute) == 1
        assert len(module.store) == 1

    def test_child_modules_deduplicated(self):
        child = QModule("child", num_inputs=1)
        child.x(child.inputs[0])
        parent = QModule("parent", num_inputs=2)
        parent.call(child, parent.inputs[0])
        parent.call(child, parent.inputs[1])
        assert parent.child_modules() == (child,)

    def test_static_gate_count_recurses(self):
        program = build_two_level_program()
        # fun1 has 4 gates; main adds 1 compute gate + 2 store gates.
        assert program.static_gate_count() == 7

    def test_validate_rejects_ancilla_without_compute(self):
        module = QModule("m", num_inputs=1, num_ancilla=1)
        with pytest.raises(ValidationError):
            module.validate()


class TestProgram:
    def test_call_graph_and_levels(self):
        program = build_two_level_program()
        graph = program.call_graph()
        assert set(graph) == {"main", "fun1"}
        assert "fun1" in graph["main"]
        assert program.num_levels() == 2

    def test_modules_entry_first(self):
        program = build_two_level_program()
        assert program.modules()[0] is program.entry

    def test_total_declared_ancilla(self):
        program = build_two_level_program()
        assert program.total_declared_ancilla() == 2

    def test_validate_passes(self):
        build_two_level_program().validate()

    def test_call_graph_lists_callees_once_in_call_order(self):
        leaf_a = QModule("a", num_inputs=1)
        leaf_a.x(leaf_a.inputs[0])
        leaf_b = QModule("b", num_inputs=1)
        leaf_b.x(leaf_b.inputs[0])
        top = QModule("top", num_inputs=1)
        for child in (leaf_b, leaf_a, leaf_b):
            top.call(child, top.inputs[0])
        assert Program(top).call_graph() == {"top": ["b", "a"], "b": [],
                                              "a": []}

    def test_validate_rejects_mutual_recursion(self):
        first = QModule("first", num_inputs=1)
        second = QModule("second", num_inputs=1)
        first.call(second, first.inputs[0])
        second.call(first, second.inputs[0])
        with pytest.raises(ValidationError, match="cyclic"):
            Program(first).validate()

    def test_validate_rejects_self_call(self):
        module = QModule("loop", num_inputs=1)
        module.x(module.inputs[0])
        module.call(module, module.inputs[0])
        with pytest.raises(ValidationError, match="cyclic"):
            Program(module).validate()

    def test_validate_accepts_shared_callee(self):
        leaf = QModule("leaf", num_inputs=1)
        leaf.x(leaf.inputs[0])
        middle = QModule("middle", num_inputs=1)
        middle.call(leaf, middle.inputs[0])
        top = QModule("top", num_inputs=1)
        top.call(middle, top.inputs[0])
        top.call(leaf, top.inputs[0])
        Program(top).validate()


class TestModuleBuilder:
    def test_builder_produces_fun1(self):
        module = build_fun1()
        assert module.name == "fun1"
        assert len(module.compute) == 3
        assert len(module.store) == 1

    def test_builder_contexts_restore_block(self):
        builder = ModuleBuilder("m", num_inputs=2, num_ancilla=1)
        with builder.store():
            builder.cx(builder.inputs[0], builder.inputs[1])
        builder.cx(builder.inputs[0], builder.ancillas[0])
        module = builder.build()
        assert len(module.store) == 1
        assert len(module.compute) == 1

    def test_build_twice_rejected(self):
        builder = ModuleBuilder("m", num_inputs=1)
        builder.x(builder.inputs[0])
        builder.build()
        with pytest.raises(IRError):
            builder.build()

    def test_auto_uncompute_gate_only(self):
        builder = ModuleBuilder("m", num_inputs=2, num_ancilla=1)
        with builder.compute():
            builder.ccx(builder.inputs[0], builder.inputs[1], builder.ancillas[0])
        builder.auto_uncompute()
        module = builder.build()
        assert module.has_explicit_uncompute
        assert len(module.uncompute) == 1

    def test_auto_uncompute_rejects_calls(self):
        child = QModule("child", num_inputs=1)
        child.x(child.inputs[0])
        builder = ModuleBuilder("m", num_inputs=1, num_ancilla=1)
        with builder.compute():
            builder.call(child, builder.ancillas[0])
        with pytest.raises(IRError):
            builder.auto_uncompute()

    def test_build_program_wraps_entry(self):
        builder = ModuleBuilder("m", num_inputs=1)
        builder.x(builder.inputs[0])
        program = builder.build_program(name="demo")
        assert isinstance(program, Program)
        assert program.name == "demo"


class TestStatements:
    def test_gate_stmt_repr(self):
        module = QModule("m", num_inputs=2)
        module.cx(module.inputs[0], module.inputs[1])
        assert "cx" in repr(module.compute[0])

    def test_call_stmt_repr(self):
        child = QModule("child", num_inputs=1)
        child.x(child.inputs[0])
        parent = QModule("parent", num_inputs=1)
        parent.call(child, parent.inputs[0])
        assert "child" in repr(parent.compute[0])

    def test_statement_types(self):
        program = build_two_level_program()
        kinds = [type(stmt) for _, stmt in program.entry.statements()]
        assert CallStmt in kinds
        assert GateStmt in kinds
